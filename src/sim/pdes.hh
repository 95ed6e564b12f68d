/**
 * @file
 * Conservative time-window parallel discrete-event engine (PDES).
 *
 * One simulated run is partitioned into per-mesh-node domains, each
 * owning its own slab-recycled EventQueue shard, plus one coordinator
 * queue (the System's `_eq`) hosting the GPU device and anything else
 * that spans domains. Shards advance independently inside a time
 * window of `lookahead` cycles — the minimum latency of any
 * cross-domain interaction (Mesh::hopLatency + 1 flit of
 * serialization), so nothing a domain does inside a window can affect
 * another domain before the window ends. At each window barrier the
 * engine, single-threaded, drains the per-domain deposit lanes in a
 * fixed domain-major order:
 *
 *   1. every shard clock is advanced to the window end;
 *   2. staged observability (trace/race logs) is merged canonically;
 *   3. coordinator events run (kernel launches, device bookkeeping);
 *   4. cross-domain mesh sends are arbitrated in (send tick, source
 *      node, per-node sequence) order against the global link state;
 *   5. cross-domain notifications (TB completions, drain callbacks)
 *      fire in the same canonical order.
 *
 * Because every merge key depends only on the fixed domain partition
 * (one domain per mesh node) and never on how domains are packed onto
 * worker threads, the merged event order — and therefore every
 * simulated output — is bitwise identical at any --sim-threads=N,
 * including N=1, which runs the same loop inline without spawning
 * threads or touching an atomic.
 *
 * Threads synchronize on a C++20 atomic wait/notify window barrier:
 * workers spin briefly in the futex fast path when cores are
 * available and park otherwise, so oversubscribed hosts degrade
 * gracefully instead of livelocking.
 */

#ifndef SIM_PDES_HH
#define SIM_PDES_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "event_queue.hh"
#include "small_fn.hh"
#include "types.hh"

namespace nosync
{

/** Callback deposited for the coordinator to run at a barrier. */
using NotifyFn = SmallFn<void(), 56>;

/** Sharded window-synchronized event engine for one System. */
class PdesEngine
{
  public:
    /**
     * @param num_domains one domain per mesh node
     * @param threads     worker threads to pack domains onto (>= 1);
     *                    1 runs every shard inline on the caller
     * @param lookahead   window width in ticks; must not exceed the
     *                    minimum cross-domain latency
     * @param coordinator queue for cross-domain components (the
     *                    System's own event queue)
     */
    PdesEngine(unsigned num_domains, unsigned threads,
               Cycles lookahead, EventQueue &coordinator);
    ~PdesEngine();

    PdesEngine(const PdesEngine &) = delete;
    PdesEngine &operator=(const PdesEngine &) = delete;

    unsigned numDomains() const
    {
        return static_cast<unsigned>(_shards.size());
    }
    unsigned threads() const { return _numThreads; }
    Cycles window() const { return _window; }

    /** Event-queue shard owned by domain @p d. */
    EventQueue &
    shard(unsigned d)
    {
        return *_shards[d];
    }

    /** The coordinator queue (cross-domain components). */
    EventQueue &coordinator() { return _coordinator; }

    /**
     * Domain whose shard the calling thread is currently executing;
     * -1 in serial context (barrier phase, construction, teardown).
     * Observability sinks key their staging lanes off this.
     */
    static int currentDomain();

    /** RAII domain marker (engine internals and microbenchmarks). */
    class DomainScope
    {
      public:
        explicit DomainScope(int domain);
        ~DomainScope();
        DomainScope(const DomainScope &) = delete;
        DomainScope &operator=(const DomainScope &) = delete;

      private:
        int _prev;
    };

    // Cross-domain deposit lanes -------------------------------------

    /**
     * A Mesh::send crossing domains, deferred to the window barrier.
     * `cls` is the TrafficClass, kept as a raw integer so the sim
     * layer stays below noc/.
     */
    struct MeshSend
    {
        NodeId src = kNoNode;
        NodeId dst = kNoNode;
        unsigned flits = 0;
        unsigned cls = 0;
        Tick sent = 0;
        bool idempotent = false;
        SmallFn<void(), 112> deliver;
    };

    /**
     * Deposit a cross-domain send. Must be called from the sending
     * node's domain (during the parallel phase) — the lane is owned
     * by that domain's worker, so no synchronization is needed.
     */
    void pushSend(MeshSend send);

    /**
     * Deposit a coordinator callback (TB completion, kernel-drain
     * notification). Runs at the next window barrier, ordered by
     * (deposit tick, domain, per-domain sequence). Callable from any
     * domain and from serial context.
     */
    void postNotification(NotifyFn fn);

    // Window loop ------------------------------------------------------

    /** Barrier-phase callbacks supplied by the System. */
    struct Hooks
    {
        /** Merge staged observability (trace/race) lanes. */
        std::function<void(Tick window_end)> preBarrier;
        /**
         * Arbitrate the window's cross-domain sends, pre-sorted by
         * (send tick, source node, sequence). The vector is consumed.
         */
        std::function<void(std::vector<MeshSend> &sends,
                           Tick window_end)>
            drainSends;
        /**
         * End-of-barrier check (invariant sweeps, completion).
         * Return true to stop the engine with state intact.
         */
        std::function<bool(Tick window_end)> atBarrier;
    };

    /**
     * Run windows until every shard and the coordinator drain, the
     * next window would start at or past @p max_cycles, or
     * hooks.atBarrier requests a stop. Returns the tick reached (the
     * last window end, or the out-of-budget window start).
     */
    Tick run(Tick max_cycles, const Hooks &hooks);

    /** Total events executed across all shards + the coordinator. */
    std::uint64_t executed() const;

    /** Earliest pending tick across shards + coordinator;
     *  ~Tick{0} when everything is empty. */
    Tick minNextTick() const;

    // Microbenchmark seams (bench/micro_perf.cc) -----------------------

    /** One parallel window phase + worker barrier, no drains. */
    void benchWindow(Tick window_end) { runParallelPhase(window_end); }

    /** Collect deposited sends in canonical order (consumes lanes). */
    std::vector<MeshSend> &collectSends();

  private:
    /** Per-domain deposit lane; written only by the owning worker
     *  during the parallel phase, read by the barrier thread. */
    struct alignas(64) DomainLane
    {
        std::vector<MeshSend> sends;
        struct Note
        {
            Tick tick;
            NotifyFn fn;
        };
        std::vector<Note> notes;
    };

    void runShard(unsigned d, Tick window_end);
    void runParallelPhase(Tick window_end);
    void drainNotifications(Tick window_end);
    void workerLoop(unsigned worker);

    std::vector<std::unique_ptr<EventQueue>> _shards;
    EventQueue &_coordinator;
    Cycles _window;
    unsigned _numThreads;

    /** Lane per domain plus one trailing lane for serial context. */
    std::vector<DomainLane> _lanes;

    /** Domain range [lo, hi) owned by each worker. */
    std::vector<unsigned> _workerLo;
    std::vector<unsigned> _workerHi;
    std::vector<std::thread> _workers;

    // Window barrier (C++20 futex-backed atomic wait).
    std::atomic<std::uint64_t> _epoch{0};
    std::atomic<unsigned> _arrived{0};
    std::atomic<bool> _stop{false};
    Tick _windowEnd = 0; ///< published by the epoch release

    std::vector<MeshSend> _sendBuf;
    std::vector<DomainLane::Note> _noteBuf;
};

} // namespace nosync

#endif // SIM_PDES_HH
