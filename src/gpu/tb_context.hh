/**
 * @file
 * Execution context of one simulated thread block.
 *
 * A TbContext identifies the thread block (kernel, global index, CU,
 * index on its CU) and exposes awaitable memory operations that drive
 * the CU's L1 controller. One context models one thread block's
 * coalesced memory instruction stream; latency is hidden across the
 * thread blocks resident on a CU, as on real hardware.
 */

#ifndef GPU_TB_CONTEXT_HH
#define GPU_TB_CONTEXT_HH

#include <coroutine>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/race_detector.hh"
#include "coherence/l1_controller.hh"
#include "energy/energy_model.hh"
#include "gpu/sim_task.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/tb_scheduler.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

/** Thread-block identification and awaitable memory interface. */
class TbContext
{
  public:
    TbContext(EventQueue &eq, L1Controller &l1, EnergyModel &energy,
              Rng rng, unsigned kernel, unsigned tb_global,
              unsigned cu, unsigned tb_on_cu, unsigned num_cus,
              unsigned tbs_per_cu, trace::TraceSink *trace = nullptr,
              analysis::RaceDetector *races = nullptr,
              unsigned race_slot = analysis::kNoRaceSlot,
              TbScheduler *sched = nullptr)
        : _eq(eq), _l1(l1), _energy(energy), _rng(rng),
          _kernel(kernel), _tbGlobal(tb_global), _cu(cu),
          _tbOnCu(tb_on_cu), _numCus(num_cus), _tbsPerCu(tbs_per_cu),
          _trace(trace), _races(races), _raceSlot(race_slot),
          _sched(sched)
    {}

    unsigned kernel() const { return _kernel; }
    unsigned tbGlobal() const { return _tbGlobal; }
    unsigned cu() const { return _cu; }
    unsigned tbOnCu() const { return _tbOnCu; }
    unsigned numCus() const { return _numCus; }
    unsigned tbsPerCu() const { return _tbsPerCu; }
    Rng &rng() { return _rng; }
    L1Controller &l1() { return _l1; }
    Tick now() const { return _eq.now(); }

    // Transaction tracing ---------------------------------------------

    /**
     * Open a traced transaction for an access this TB issues now.
     * Returns 0 when tracing is disabled; endTxn(0) is a no-op, so
     * awaitables call the pair unconditionally.
     */
    std::uint64_t
    beginTxn(trace::TxnClass cls, Addr addr)
    {
        if (!_trace)
            return 0;
        return _trace->beginTxn(cls, _eq.now(),
                                static_cast<NodeId>(_cu), addr);
    }

    /** Close a traced transaction opened by beginTxn(). */
    void
    endTxn(std::uint64_t txn)
    {
        if (txn != 0)
            _trace->endTxn(txn, _eq.now());
    }

    /** Record a sync-point instant at this TB's CU (tracing on). */
    void
    recordSync(trace::Phase phase, const SyncOp &op)
    {
        // aux encodes the scope; values for the original two scopes
        // predate Scope::Device, so Device takes the next free code.
        std::uint16_t aux = 0;
        if (op.scope == Scope::Global)
            aux = 1;
        else if (op.scope == Scope::Device)
            aux = 2;
        _trace->record(_eq.now(), phase, _l1.node(), op.addr, 0, aux);
    }

    /** Latency class of a synchronization access. */
    static trace::TxnClass
    syncClass(const SyncOp &op)
    {
        bool device = op.scope == Scope::Device;
        switch (op.sem) {
          case SyncSemantics::Acquire:
            return device ? trace::TxnClass::SyncAcquireDevice
                          : trace::TxnClass::SyncAcquire;
          case SyncSemantics::Release:
            return device ? trace::TxnClass::SyncReleaseDevice
                          : trace::TxnClass::SyncRelease;
          case SyncSemantics::AcquireRelease:
            break;
        }
        return device ? trace::TxnClass::SyncAcqRelDevice
                      : trace::TxnClass::SyncAcqRel;
    }

    // Race checking ---------------------------------------------------

    /** Clock slot assigned by the race detector (kNoRaceSlot = off). */
    unsigned raceSlot() const { return _raceSlot; }

    /** Record a data load issued now (race checking on). */
    void
    noteDataRead(Addr addr)
    {
        if (_races)
            _races->dataRead(_raceSlot, addr, _eq.now());
    }

    /** Record a data store issued now (race checking on). */
    void
    noteDataWrite(Addr addr)
    {
        if (_races)
            _races->dataWrite(_raceSlot, addr, _eq.now());
    }

    // Wait-state tracking (hang diagnostics) --------------------------

    /** Awaiter kinds a TB can be suspended on. */
    enum class WaitKind : std::uint8_t
    {
        Load,
        LoadMany,
        Store,
        StoreMany,
        Delay,
        Atomic,
    };

    /**
     * Record what this TB's coroutine is suspended on. Awaiters store
     * raw fields only; waitSummary() renders the text on demand, so
     * the per-operation path does no formatting. @p count is the
     * batch size (LoadMany/StoreMany) or the cycles (Delay).
     */
    void
    beginWait(WaitKind kind, Addr addr, std::uint64_t count = 0)
    {
        _wait.kind = kind;
        _wait.addr = addr;
        _wait.count = count;
        _waitSince = _eq.now();
        _waiting = true;
    }

    /** Record a suspension on synchronization access @p op. */
    void
    beginWait(const SyncOp &op)
    {
        beginWait(WaitKind::Atomic, op.addr);
        _wait.func = op.func;
        _wait.scope = op.scope;
    }

    /** Clear the wait record just before the coroutine resumes. */
    void endWait() { _waiting = false; }

    /** Mark the coroutine as run to completion. */
    void markDone() { _done = true; }

    bool done() const { return _done; }
    bool waiting() const { return _waiting; }

    /** One-line description of the suspension, for HangReport. */
    std::string
    waitSummary() const
    {
        std::ostringstream os;
        os << "kernel " << _kernel << " tb " << _tbGlobal << " (cu "
           << _cu << "): ";
        if (_done)
            os << "completed";
        else if (!_waiting)
            os << "runnable (between awaits)";
        else
            describeWait(os << "awaiting ") << " since tick "
                                            << _waitSince;
        return os.str();
    }

    // Scheduling hook -------------------------------------------------

    /**
     * Route an operation's issue thunk through the attached scheduler
     * (model checking), or run it inline when none is attached — the
     * normal path, which stays branch-only so unscheduled runs are
     * bitwise identical. The thunk performs the race/trace hooks and
     * the L1 call, so under a scheduler those fire at the tick the
     * operation actually issues.
     */
    template <typename Fn>
    void
    issueOp(Addr addr, TbOpKind kind, Fn &&fn)
    {
        if (_sched == nullptr) {
            fn();
            return;
        }
        TbOp op;
        op.kernel = _kernel;
        op.tbGlobal = _tbGlobal;
        op.cu = _cu;
        op.addr = addr;
        op.kind = kind;
        _sched->issue(op, std::function<void()>(std::forward<Fn>(fn)));
    }

    /** TbOpKind of a synchronization access (scheduler footprint). */
    static TbOpKind
    syncOpKind(const SyncOp &op)
    {
        switch (op.func) {
          case AtomicFunc::Load:
            return TbOpKind::AtomicLoad;
          case AtomicFunc::Store:
            return TbOpKind::AtomicStore;
          case AtomicFunc::FetchAdd:
          case AtomicFunc::Exchange:
          case AtomicFunc::CompareSwap:
            break;
        }
        return TbOpKind::AtomicRmw;
    }

    /** Awaitable data load. */
    auto
    load(Addr addr)
    {
        struct Awaiter
        {
            TbContext *ctx;
            Addr addr;
            std::uint32_t value = 0;
            std::uint64_t txn = 0;

            bool await_ready() { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::Load, addr);
                ctx->issueOp(addr, TbOpKind::Load, [this, h] {
                    ctx->noteDataRead(addr);
                    txn = ctx->beginTxn(trace::TxnClass::Load, addr);
                    ctx->_l1.load(addr, [this, h](std::uint32_t v) {
                        value = v;
                        ctx->endTxn(txn);
                        ctx->endWait();
                        h.resume();
                    });
                });
            }

            std::uint32_t await_resume() { return value; }
        };
        return Awaiter{this, addr};
    }

    /** Awaitable batch of independent loads (a coalesced warp). */
    auto
    loadMany(std::vector<Addr> addrs)
    {
        struct Awaiter
        {
            TbContext *ctx;
            std::vector<Addr> addrs;
            std::vector<std::uint32_t> values;
            unsigned remaining = 0;
            std::uint64_t txn = 0;

            bool await_ready() { return addrs.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::LoadMany, addrs.front(),
                               addrs.size());
                // The whole coalesced batch issues as one scheduled
                // quantum: a warp's loads are not interleavable.
                ctx->issueOp(addrs.front(), TbOpKind::Load, [this, h] {
                    for (Addr addr : addrs)
                        ctx->noteDataRead(addr);
                    // One transaction spans the whole coalesced
                    // batch: its latency is the slowest constituent
                    // load.
                    txn = ctx->beginTxn(trace::TxnClass::Load,
                                        addrs.front());
                    values.assign(addrs.size(), 0);
                    remaining = static_cast<unsigned>(addrs.size());
                    for (std::size_t i = 0; i < addrs.size(); ++i) {
                        ctx->_l1.load(addrs[i],
                                      [this, i, h](std::uint32_t v) {
                                          values[i] = v;
                                          if (--remaining == 0) {
                                              ctx->endTxn(txn);
                                              ctx->endWait();
                                              h.resume();
                                          }
                                      });
                    }
                });
            }

            std::vector<std::uint32_t>
            await_resume()
            {
                return std::move(values);
            }
        };
        return Awaiter{this, std::move(addrs), {}, 0};
    }

    /** Awaitable batch of independent stores (a coalesced warp). */
    auto
    storeMany(std::vector<std::pair<Addr, std::uint32_t>> stores)
    {
        struct Awaiter
        {
            TbContext *ctx;
            std::vector<std::pair<Addr, std::uint32_t>> stores;
            unsigned remaining = 0;
            std::uint64_t txn = 0;

            bool await_ready() { return stores.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::StoreMany,
                               stores.front().first, stores.size());
                ctx->issueOp(stores.front().first, TbOpKind::Store,
                             [this, h] {
                    for (const auto &st : stores)
                        ctx->noteDataWrite(st.first);
                    txn = ctx->beginTxn(trace::TxnClass::Store,
                                        stores.front().first);
                    remaining = static_cast<unsigned>(stores.size());
                    for (const auto &[addr, value] : stores) {
                        ctx->_l1.store(addr, value, [this, h] {
                            if (--remaining == 0) {
                                ctx->endTxn(txn);
                                ctx->endWait();
                                h.resume();
                            }
                        });
                    }
                });
            }

            void await_resume() {}
        };
        return Awaiter{this, std::move(stores), 0};
    }

    /** Awaitable data store (completes when accepted/retired). */
    auto
    store(Addr addr, std::uint32_t value)
    {
        struct Awaiter
        {
            TbContext *ctx;
            Addr addr;
            std::uint32_t value;
            std::uint64_t txn = 0;

            bool await_ready() { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::Store, addr);
                ctx->issueOp(addr, TbOpKind::Store, [this, h] {
                    ctx->noteDataWrite(addr);
                    txn = ctx->beginTxn(trace::TxnClass::Store, addr);
                    ctx->_l1.store(addr, value, [this, h] {
                        ctx->endTxn(txn);
                        ctx->endWait();
                        h.resume();
                    });
                });
            }

            void await_resume() {}
        };
        return Awaiter{this, addr, value};
    }

    /** Awaitable synchronization (atomic) access. */
    auto
    atomic(SyncOp op)
    {
        // Stamp the issuing TB's clock slot so the coherence-side
        // perform sites can attribute the atomic to this TB.
        op.tb = _raceSlot;
        struct Awaiter
        {
            TbContext *ctx;
            SyncOp op;
            std::uint32_t value = 0;
            std::uint64_t txn = 0;

            bool await_ready() { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(op);
                ctx->issueOp(op.addr, syncOpKind(op), [this, h] {
                    if (ctx->_trace) {
                        txn = ctx->beginTxn(syncClass(op), op.addr);
                        if (op.isAcquire())
                            ctx->recordSync(
                                trace::Phase::TbSyncAcquire, op);
                        if (op.isRelease())
                            ctx->recordSync(
                                trace::Phase::TbSyncRelease, op);
                    }
                    ctx->_l1.sync(op, [this, h](std::uint32_t v) {
                        value = v;
                        ctx->endTxn(txn);
                        ctx->endWait();
                        h.resume();
                    });
                });
            }

            std::uint32_t await_resume() { return value; }
        };
        return Awaiter{this, op};
    }

    /** Awaitable delay (compute work or synchronization backoff). */
    auto
    wait(Cycles cycles)
    {
        struct Awaiter
        {
            TbContext *ctx;
            Cycles cycles;

            bool await_ready() { return cycles == 0; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->beginWait(WaitKind::Delay, 0, cycles);
                ctx->_eq.scheduleIn(cycles,
                                    [c = ctx, h] {
                                        c->endWait();
                                        h.resume();
                                    },
                                    EventPriority::CuIssue);
            }

            void await_resume() {}
        };
        return Awaiter{this, cycles};
    }

    /** Scratchpad accesses: @p words word accesses, 1 cycle. */
    auto
    scratch(unsigned words)
    {
        _energy.scratchAccess(words);
        return wait(1);
    }

    // Convenience sync-op builders ------------------------------------

    SyncOp
    atomicLoad(Addr addr, Scope scope) const
    {
        SyncOp op;
        op.func = AtomicFunc::Load;
        op.addr = addr;
        op.scope = scope;
        op.sem = SyncSemantics::Acquire;
        return op;
    }

    SyncOp
    atomicStore(Addr addr, std::uint32_t value, Scope scope) const
    {
        SyncOp op;
        op.func = AtomicFunc::Store;
        op.addr = addr;
        op.operand = value;
        op.scope = scope;
        op.sem = SyncSemantics::Release;
        return op;
    }

    SyncOp
    fetchAdd(Addr addr, std::uint32_t amount, Scope scope,
             SyncSemantics sem = SyncSemantics::AcquireRelease) const
    {
        SyncOp op;
        op.func = AtomicFunc::FetchAdd;
        op.addr = addr;
        op.operand = amount;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

    SyncOp
    compareSwap(Addr addr, std::uint32_t expected,
                std::uint32_t desired, Scope scope,
                SyncSemantics sem = SyncSemantics::AcquireRelease)
        const
    {
        SyncOp op;
        op.func = AtomicFunc::CompareSwap;
        op.addr = addr;
        op.compare = expected;
        op.operand = desired;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

    SyncOp
    exchange(Addr addr, std::uint32_t desired, Scope scope,
             SyncSemantics sem = SyncSemantics::AcquireRelease) const
    {
        SyncOp op;
        op.func = AtomicFunc::Exchange;
        op.addr = addr;
        op.operand = desired;
        op.scope = scope;
        op.sem = sem;
        return op;
    }

  private:
    /** What a suspended TB waits on (fields per WaitKind). */
    struct WaitState
    {
        Addr addr = 0;
        /** Batch size (LoadMany/StoreMany) or cycles (Delay). */
        std::uint64_t count = 0;
        WaitKind kind = WaitKind::Load;
        /** Atomic only. */
        AtomicFunc func = AtomicFunc::Load;
        Scope scope = Scope::Global;
    };
    static_assert(sizeof(WaitState) <= sizeof(std::string),
                  "the wait record must stay no larger than a "
                  "std::string");

    /** Render the current wait record (the text after "awaiting"). */
    std::ostream &
    describeWait(std::ostream &os) const
    {
        switch (_wait.kind) {
          case WaitKind::Load:
            os << "load ";
            break;
          case WaitKind::Store:
            os << "store ";
            break;
          case WaitKind::LoadMany:
            os << "loadMany of " << _wait.count << " words at ";
            break;
          case WaitKind::StoreMany:
            os << "storeMany of " << _wait.count << " words at ";
            break;
          case WaitKind::Delay:
            return os << "delay of " << _wait.count << " cycles";
          case WaitKind::Atomic:
            os << atomicFuncName(_wait.func) << " ";
            break;
        }
        os << "0x" << std::hex << _wait.addr << std::dec;
        if (_wait.kind == WaitKind::Atomic) {
            const char *scope = "global";
            if (_wait.scope == Scope::Local)
                scope = "local";
            else if (_wait.scope == Scope::Device)
                scope = "device";
            os << " (" << scope << " scope)";
        }
        return os;
    }

    static const char *
    atomicFuncName(AtomicFunc func)
    {
        switch (func) {
          case AtomicFunc::Load: return "atomic-load";
          case AtomicFunc::Store: return "atomic-store";
          case AtomicFunc::FetchAdd: return "fetch-add";
          case AtomicFunc::Exchange: return "exchange";
          case AtomicFunc::CompareSwap: return "compare-swap";
        }
        return "?";
    }

    EventQueue &_eq;
    L1Controller &_l1;
    EnergyModel &_energy;
    Rng _rng;
    unsigned _kernel;
    unsigned _tbGlobal;
    unsigned _cu;
    unsigned _tbOnCu;
    unsigned _numCus;
    unsigned _tbsPerCu;
    /** Observability sink; nullptr when tracing is disabled. */
    trace::TraceSink *_trace = nullptr;
    /** Race detector; nullptr when race checking is disabled. */
    analysis::RaceDetector *_races = nullptr;
    /** This TB's clock slot in the detector. */
    unsigned _raceSlot = analysis::kNoRaceSlot;
    /** Exploration scheduler; nullptr outside model checking. */
    TbScheduler *_sched = nullptr;

    // Wait-state tracking for hang diagnostics.
    WaitState _wait;
    Tick _waitSince = 0;
    bool _waiting = false;
    bool _done = false;
};

} // namespace nosync

#endif // GPU_TB_CONTEXT_HH
