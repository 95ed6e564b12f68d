/**
 * @file
 * Unit tests for the discrete-event scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace nosync;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::CuIssue);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::NetworkDelivery);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

// Regression tests for the slab-recycled callback storage: freed
// callback slots are reused by later schedules, and the FIFO sequence
// numbering must survive that recycling.

TEST(EventQueue, SameTickFifoSurvivesSlotRecycling)
{
    EventQueue eq;
    std::vector<int> order;
    // Phase 1 populates and frees a batch of slots.
    for (int i = 0; i < 16; ++i)
        eq.schedule(1, [&order, i] { order.push_back(i); });
    eq.run();
    order.clear();
    // Phase 2 reuses the freed slots; FIFO order must be by schedule
    // time, not by slot index.
    for (int i = 15; i >= 0; --i)
        eq.schedule(10, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], 15 - i);
}

TEST(EventQueue, EventsScheduledFromCallbacksKeepFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // The callback schedules more same-tick work while its own slot
    // has already been freed for reuse.
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(5, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PriorityStillBeatsFifoAfterRecycling)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.schedule(1, [] {});
    eq.run();
    eq.schedule(9, [&] { order.push_back(2); },
                EventPriority::Stats);
    eq.schedule(9, [&] { order.push_back(1); });
    eq.schedule(9, [&] { order.push_back(0); },
                EventPriority::NetworkDelivery);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, LargeCapturesBeyondInlineBufferWork)
{
    EventQueue eq;
    // An 80-byte capture exceeds the EventFn inline buffer and takes
    // the heap-fallback path; it must still run and destroy cleanly.
    std::array<std::uint64_t, 10> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i + 1;
    std::uint64_t sum = 0;
    eq.schedule(1, [payload, &sum] {
        for (auto v : payload)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 55u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueueDeathTest, AdvancingPastAPendingEventPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.advanceTo(10); // up to the event is fine
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_DEATH(eq.advanceTo(11), "past a pending event");
}

// ---------------------------------------------------------------------
// Differential ordering against a reference (tick, priority, sequence)
// binary heap: the calendar queue must execute every event stream in
// exactly the order, and at exactly the ticks, that the reference does.

namespace
{

constexpr Tick kW = EventQueue::kHorizon;

/** The ordering contract as a plain binary heap. */
class ReferenceQueue
{
  public:
    Tick now() const { return _now; }
    bool empty() const { return _heap.empty(); }
    std::size_t pending() const { return _heap.size(); }

    Tick
    nextEventTick() const
    {
        return _heap.empty() ? ~Tick{0} : std::get<0>(_heap.top());
    }

    void
    schedule(Tick when, std::function<void()> fn, EventPriority prio)
    {
        ASSERT_GE(when, _now);
        _heap.emplace(when, static_cast<int>(prio), _seq, _fns.size());
        ++_seq;
        _fns.push_back(std::move(fn));
    }

    bool
    step()
    {
        if (_heap.empty())
            return false;
        runTop();
        return true;
    }

    Tick
    run(Tick limit = ~Tick{0})
    {
        while (!_heap.empty() && std::get<0>(_heap.top()) <= limit)
            runTop();
        if (_now < limit && !_heap.empty())
            _now = limit;
        return _now;
    }

    void
    runUntil(Tick end)
    {
        while (!_heap.empty() && std::get<0>(_heap.top()) < end)
            runTop();
    }

    void
    advanceTo(Tick t)
    {
        if (t > _now)
            _now = t;
    }

  private:
    using Entry = std::tuple<Tick, int, std::uint64_t, std::size_t>;

    void
    runTop()
    {
        const Entry top = _heap.top();
        _heap.pop();
        _now = std::get<0>(top);
        std::function<void()> fn = std::move(_fns[std::get<3>(top)]);
        fn();
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> _heap;
    std::vector<std::function<void()>> _fns;
    Tick _now = 0;
    std::uint64_t _seq = 0;
};

/**
 * A fixed-seed random event program run against queue type Q. Each
 * event logs (id, tick) and schedules children drawn from an RNG
 * keyed by its own id, so two queues that agree on the order run the
 * same program; the outer loop mixes in every driver entry point.
 */
template <typename Q>
class RandomProgram
{
  public:
    explicit RandomProgram(std::uint64_t seed) : _seed(seed) {}

    /** @return one record per event and per driver operation. */
    std::vector<std::uint64_t>
    trace()
    {
        Rng outer(_seed);
        for (int i = 0; i < 24; ++i)
            spawn(outer);
        for (int op = 0; op < 3000; ++op) {
            switch (outer.below(7)) {
              case 0:
                _q.step();
                break;
              case 1:
                _q.run(_q.now() + outer.below(2 * kW));
                break;
              case 2:
                _q.runUntil(_q.now() + outer.below(2 * kW));
                break;
              case 3:
                _q.advanceTo(std::min(_q.nextEventTick(),
                                      _q.now() + outer.below(2 * kW)));
                break;
              case 4:
                for (auto n = outer.range(1, 4); n > 0; --n)
                    spawn(outer);
                break;
              default:
                for (int k = 0; k < 16 && _q.step(); ++k) {
                }
                break;
            }
            _log.push_back(0xd00d0000'00000000ull | _q.now());
            _log.push_back(_q.pending() * 2 + (_q.empty() ? 1 : 0));
            _log.push_back(_q.nextEventTick());
        }
        _budget = 0;
        _q.run();
        _log.push_back(_q.now());
        return _log;
    }

  private:
    static Tick
    drawDelta(Rng &rng)
    {
        switch (rng.below(10)) {
          case 0:
            return 0;
          case 1:
            return kW - 1;
          case 2:
            return kW;
          case 3:
            return kW + 1;
          case 4:
            return kW * rng.range(2, 6) + rng.below(kW);
          case 5:
            return rng.below(3 * kW);
          default:
            return rng.below(64);
        }
    }

    void
    spawn(Rng &rng)
    {
        if (_budget == 0)
            return;
        --_budget;
        const std::uint64_t id = _nextId++;
        Tick when = _q.now() + drawDelta(rng);
        // Half the events land on a coarse grid, so parked and
        // directly scheduled events often share a tick and priority.
        if (rng.below(2))
            when = (when + 31) & ~Tick{31};
        const auto prio = static_cast<EventPriority>(rng.below(4));
        _q.schedule(
            when, [this, id, prio] { fire(id, prio); }, prio);
    }

    void
    fire(std::uint64_t id, EventPriority prio)
    {
        _log.push_back(id << 16 | static_cast<unsigned>(prio));
        _log.push_back(_q.now());
        Rng rng(_seed * 0x9e3779b97f4a7c15ull + id);
        // Odd seeds keep about a hundred events pending; even seeds
        // keep a sparse queue, whose long gaps make advanceTo and the
        // limited runs cross the horizon.
        const std::size_t depth = _seed % 2 ? 100 : 6;
        const auto children =
            _q.pending() < depth ? rng.range(1, 3) : rng.below(2);
        for (auto c = children; c > 0; --c)
            spawn(rng);
    }

    Q _q;
    std::uint64_t _seed;
    std::uint64_t _nextId = 0;
    std::uint64_t _budget = 40000;
    std::vector<std::uint64_t> _log;
};

} // namespace

TEST(EventQueueDifferential, RandomStreamsMatchReferenceHeap)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::vector<std::uint64_t> want =
            RandomProgram<ReferenceQueue>(seed).trace();
        const std::vector<std::uint64_t> got =
            RandomProgram<EventQueue>(seed).trace();
        ASSERT_GT(want.size(), 40000u);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        const auto diverge =
            std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_TRUE(diverge.first == got.end())
            << "seed " << seed << ": first divergence at record "
            << (diverge.first - got.begin());
    }
}

TEST(EventQueueDifferential, PriorityZeroAtNowPreemptsRemainingPriorityOne)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(1);
        eq.schedule(7, [&] { order.push_back(0); },
                    EventPriority::NetworkDelivery);
    });
    eq.schedule(7, [&] { order.push_back(2); });
    eq.schedule(7, [&] { order.push_back(3); });
    eq.schedule(7, [&] {
        order.push_back(4);
        eq.schedule(7, [&] { order.push_back(5); },
                    EventPriority::NetworkDelivery);
    }, EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueueDifferential, OverflowEventKeepsItsFifoPlaceAfterMigration)
{
    // A is parked in overflow at tick 0. C is scheduled exactly kW
    // ahead, so it is parked too; B is kW - 1 ahead and goes straight
    // into the wheel, after A (and C) have migrated. All three share
    // tick T and priority, so they must run A, C, B; Z at priority 0
    // runs first.
    const Tick t = 5 * kW;
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(t, [&] { order.push_back('A'); });
    EXPECT_EQ(eq.nextEventTick(), t);
    eq.schedule(t - kW, [&] {
        eq.schedule(t, [&] { order.push_back('C'); });
    });
    eq.schedule(t - kW + 1, [&] {
        eq.schedule(t, [&] { order.push_back('B'); });
        eq.schedule(t, [&] { order.push_back('Z'); },
                    EventPriority::NetworkDelivery);
    });
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'Z', 'A', 'C', 'B'}));
    EXPECT_EQ(eq.now(), t);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDifferential, DriverCallsAcrossTheHorizon)
{
    EventQueue eq;
    std::string order;
    eq.schedule(3 * kW, [&] { order += 'a'; });
    eq.schedule(kW - 1, [&] { order += 'x'; });
    EXPECT_EQ(eq.nextEventTick(), kW - 1);
    eq.runUntil(kW - 1); // exclusive
    EXPECT_EQ(order, "");
    EXPECT_EQ(eq.now(), 0u);
    eq.runUntil(kW);
    EXPECT_EQ(order, "x");
    EXPECT_EQ(eq.now(), kW - 1);
    EXPECT_EQ(eq.nextEventTick(), 3 * kW);
    // Advancing the clock pulls the parked event into the wheel, so
    // it stays ahead of a same-tick event scheduled straight after.
    eq.advanceTo(2 * kW + 5);
    EXPECT_EQ(eq.nextEventTick(), 3 * kW);
    eq.schedule(3 * kW, [&] { order += 'b'; });
    EXPECT_EQ(eq.run(3 * kW - 1), 3 * kW - 1);
    EXPECT_EQ(order, "x");
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.run(), 3 * kW);
    EXPECT_EQ(order, "xab");
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), ~Tick{0});
}

TEST(EventQueue, CallbackSchedulingSeveralChunksRunsInPlace)
{
    // The running callback schedules enough events to add new slot
    // chunks; its own captures must stay intact while it runs.
    EventQueue eq;
    std::vector<int> order;
    std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
    std::uint64_t sum = 0;
    eq.schedule(1, [&eq, &order, &sum, payload] {
        for (int i = 0; i < 1000; ++i)
            eq.schedule(1 + i % 3, [&order, i] { order.push_back(i); });
        for (auto v : payload)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 15u);
    ASSERT_EQ(order.size(), 1000u);
    std::vector<int> want;
    for (int tick = 1; tick <= 3; ++tick) {
        for (int i = 0; i < 1000; ++i) {
            if (1 + i % 3 == tick)
                want.push_back(i);
        }
    }
    EXPECT_EQ(order, want);
}

TEST(EventQueue, HeapSpilledCapturesAreDestroyedExactlyOnce)
{
    struct Counts
    {
        int live = 0;
        int ran = 0;
    };
    // Larger than the 56-byte inline buffer: every capture spills.
    struct Tracked
    {
        explicit Tracked(Counts &c) : counts(&c) { ++counts->live; }
        Tracked(const Tracked &o) : counts(o.counts), pad(o.pad)
        {
            ++counts->live;
        }
        ~Tracked() { --counts->live; }
        Counts *counts;
        std::array<std::uint64_t, 8> pad{};
    };

    Counts counts;
    std::vector<int> runs(600, 0);
    {
        EventQueue eq;
        Rng rng(7);
        for (int i = 0; i < 600; ++i) {
            Tracked t(counts);
            eq.schedule(rng.below(3 * kW), [t, &runs, i] {
                ++t.counts->ran;
                ++runs[i];
            });
        }
        EXPECT_EQ(counts.live, 600);
        eq.run(kW); // some run, the rest stay in wheel and overflow
        EXPECT_GT(counts.ran, 0);
        EXPECT_LT(counts.ran, 600);
        EXPECT_EQ(counts.live, 600 - counts.ran);
    }
    EXPECT_EQ(counts.live, 0) << "pending callbacks leaked or double-freed";
    for (int r : runs)
        EXPECT_LE(r, 1);
}
