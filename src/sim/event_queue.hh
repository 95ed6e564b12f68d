/**
 * @file
 * Deterministic discrete-event scheduler.
 *
 * All timing simulation in gpu-nosync is driven by a single EventQueue.
 * Events scheduled for the same tick fire in the order they were
 * scheduled (FIFO), which together with the deterministic RNG makes
 * every simulation fully reproducible.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "logging.hh"
#include "small_fn.hh"
#include "types.hh"

namespace nosync
{

/** Priority for events that share a tick; lower runs first. */
enum class EventPriority : int
{
    NetworkDelivery = 0,
    Default = 1,
    CuIssue = 2,
    Stats = 3,
};

/**
 * Callback type for scheduled events. Captures up to the inline
 * capacity live inside the event record itself — no heap allocation
 * on the schedule/execute hot path; larger captures spill to the
 * heap transparently.
 */
using EventFn = SmallFn<void(), 56>;

/**
 * A single-owner discrete-event queue.
 *
 * Callbacks are SmallFn thunks; components capture `this` and
 * whatever request state they need. The queue never runs callbacks
 * re-entrantly: schedule() during a callback enqueues for later.
 *
 * Events run in (tick, priority, schedule order). The queue is a
 * calendar queue (timing wheel): an event less than kHorizon ticks
 * ahead of now() joins one intrusive FIFO per (tick mod kHorizon,
 * priority), and a two-level occupancy bitmap finds the earliest
 * non-empty FIFO with two count-trailing-zeros. Events further ahead
 * wait in a small overflow min-heap and move into the wheel as soon
 * as now() comes within the horizon of their tick, before anything
 * else can be scheduled for that tick, so FIFO order is kept (see
 * DESIGN.md "Event-core storage").
 *
 * Callbacks live in fixed-size chunks that never move, linked into
 * the FIFOs by slot index, so a callback runs in place and its slot
 * is recycled only after it returns. Scheduling and executing an
 * ordinary event touches no allocator once the chunks are warm.
 */
class EventQueue
{
  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, EventFn fn,
             EventPriority prio = EventPriority::Default)
    {
        panic_if(when < _now, "scheduling event in the past (", when,
                 " < ", _now, ")");
        const std::uint32_t idx = allocSlot();
        slot(idx).fn = std::move(fn);
        ++_pending;
        if (when - _now < kHorizon)
            append(when, static_cast<unsigned>(prio), idx);
        else
            park(when, prio, idx);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    scheduleIn(Cycles delay, EventFn fn,
               EventPriority prio = EventPriority::Default)
    {
        schedule(_now + delay, std::move(fn), prio);
    }

    /** Whether any events remain. */
    bool empty() const { return _pending == 0; }

    /** Tick of the earliest pending event; ~Tick{0} when empty. */
    Tick nextEventTick() const;

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /**
     * Run events until the queue drains or @p limit ticks elapse.
     * @return the tick of the last executed event.
     */
    Tick run(Tick limit = ~Tick{0});

    /**
     * Run every event strictly before @p end (exclusive), leaving
     * now() untouched past the last executed event. The PDES window
     * loop uses this so events scheduled exactly at a window boundary
     * run in the next window, after cross-domain traffic for that
     * tick has been merged.
     */
    void runUntil(Tick end);

    /**
     * Advance the clock to @p t if it is behind (never rewinds).
     * @pre t <= nextEventTick(): no pending event is skipped.
     */
    void advanceTo(Tick t);

    /**
     * Execute the earliest event if its tick is <= @p limit.
     * @return false if no event ran.
     */
    bool step(Tick limit = ~Tick{0}) { return runNext(limit); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Wheel span in ticks: an event less than this far ahead of now()
     * goes straight into the wheel, a later one waits in the overflow
     * heap. Simulated hops (mesh links, cache and DRAM latencies, TB
     * issue) are almost all well under it. With four priorities the
     * wheel has 64 x 64 FIFOs: one bitmap word per 16 ticks and one
     * summary word over the whole wheel.
     */
    static constexpr Tick kHorizon = 1024;

  private:
    static constexpr unsigned kPriorities = 4;
    static_assert(static_cast<unsigned>(EventPriority::Stats) + 1 ==
                  kPriorities);
    static constexpr unsigned kFifos = kHorizon * kPriorities;
    static constexpr unsigned kWords = kFifos / 64;
    static_assert(kWords == 64, "one summary word covers the bitmap");

    /** Bits of the overflow order key reserved for the sequence. */
    static constexpr unsigned kSeqBits = 56;

    static constexpr unsigned kChunkShift = 6;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    struct Slot
    {
        EventFn fn;
        /** Next slot in this slot's FIFO, or in the free list. */
        std::uint32_t next;
    };

    /** Head and tail slot of one FIFO; valid only while its bit is
     *  set in the bitmap. */
    struct Fifo
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    struct OverflowEntry
    {
        Tick when;
        std::uint64_t key; ///< (priority << kSeqBits) | sequence
        std::uint32_t slot;

        bool
        operator>(const OverflowEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return key > other.key;
        }
    };

    Slot &
    slot(std::uint32_t idx)
    {
        return _chunks[idx >> kChunkShift][idx & (kChunkSlots - 1)];
    }

    std::uint32_t
    allocSlot()
    {
        if (_freeSlot != kNoSlot) {
            const std::uint32_t idx = _freeSlot;
            _freeSlot = slot(idx).next;
            return idx;
        }
        if ((_slotCount & (kChunkSlots - 1)) == 0)
            addChunk();
        return _slotCount++;
    }

    void addChunk();

    /** Hold slot @p idx in the overflow heap until @p when is within
     *  the horizon. */
    void park(Tick when, EventPriority prio, std::uint32_t idx);

    /** Append slot @p idx to the FIFO of (@p when, @p prio).
     *  @pre now() <= when < now() + kHorizon */
    void
    append(Tick when, unsigned prio, std::uint32_t idx)
    {
        const unsigned f = static_cast<unsigned>(
                               when & (kHorizon - 1)) *
                               kPriorities +
                           prio;
        const std::uint64_t bit = std::uint64_t{1} << (f & 63);
        std::uint64_t &word = _bits[f >> 6];
        if (word & bit) {
            slot(_fifos[f].tail).next = idx;
            _fifos[f].tail = idx;
        } else {
            _fifos[f] = Fifo{idx, idx};
            word |= bit;
            _summary |= std::uint64_t{1} << (f >> 6);
        }
        ++_inWheel;
    }

    /** Earliest non-empty FIFO. @pre _inWheel > 0 */
    unsigned firstFifo() const;

    /** Tick of the events in FIFO @p f. */
    Tick
    fifoTick(unsigned f) const
    {
        return _now + ((f / kPriorities - _now) & (kHorizon - 1));
    }

    /** Set now() to @p t and pull every overflow event now within
     *  the horizon into the wheel. */
    void setNow(Tick t);

    /** Run the earliest event if its tick is <= @p last. */
    bool runNext(Tick last);

    std::array<std::uint64_t, kWords> _bits{};
    std::uint64_t _summary = 0;
    std::size_t _inWheel = 0;

    std::priority_queue<OverflowEntry, std::vector<OverflowEntry>,
                        std::greater<>>
        _overflow;
    std::uint64_t _overflowSeq = 0;

    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0;
    std::uint32_t _freeSlot = kNoSlot;

    Tick _now = 0;
    std::size_t _pending = 0;
    std::uint64_t _executed = 0;

    /** Read only under a set bit, so left uninitialized: building a
     *  queue writes none of it. */
    Fifo _fifos[kFifos];
};

} // namespace nosync

#endif // SIM_EVENT_QUEUE_HH
