/**
 * @file
 * Tests for the GPU execution layer: coroutine awaiters (load,
 * loadMany, storeMany, atomic, wait, scratch), sub-task composition,
 * kernel sequencing, TB-to-CU assignment, and the exact wait-state
 * text hang reports print for every awaiter kind.
 */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::test;

namespace
{

/** Workload harness running a user-supplied coroutine body. */
class LambdaWorkload : public Workload
{
  public:
    using Body = std::function<SimTask(TbContext &, LambdaWorkload &)>;

    LambdaWorkload(unsigned tbs, Body body)
        : _tbs(tbs), _body(std::move(body))
    {}

    std::string name() const override { return "lambda"; }

    void
    init(WorkloadEnv &env) override
    {
        scratchBase = env.alloc(4096);
        env.writeInit(scratchBase, 17);
        env.writeInit(scratchBase + 4, 23);
        env.writeInit(scratchBase + 8, 31);
    }

    KernelInfo kernelInfo(unsigned) const override { return {_tbs}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        return _body(ctx, *this);
    }

    Addr scratchBase = 0;
    std::atomic<unsigned> observations{0};
    std::vector<std::uint32_t> seen =
        std::vector<std::uint32_t>(64, 0);

  private:
    unsigned _tbs;
    Body _body;
};

RunResult
runLambda(LambdaWorkload &workload,
          ProtocolConfig proto = ProtocolConfig::dd())
{
    SystemConfig config;
    config.protocol = proto;
    System system(config);
    return system.run(workload);
}

} // namespace

TEST(GpuExec, LoadManyReturnsValuesInOrder)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        std::vector<Addr> addrs{self.scratchBase,
                                self.scratchBase + 4,
                                self.scratchBase + 8};
        auto values = co_await ctx.loadMany(std::move(addrs));
        self.seen[0] = values[0];
        self.seen[1] = values[1];
        self.seen[2] = values[2];
        ++self.observations;
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 1u);
    EXPECT_EQ(wl.seen[0], 17u);
    EXPECT_EQ(wl.seen[1], 23u);
    EXPECT_EQ(wl.seen[2], 31u);
}

TEST(GpuExec, EmptyLoadManyCompletesImmediately)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        auto values = co_await ctx.loadMany(std::vector<Addr>{});
        self.seen[0] = static_cast<std::uint32_t>(values.size());
        ++self.observations;
        co_await ctx.wait(1);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 1u);
    EXPECT_EQ(wl.seen[0], 0u);
}

TEST(GpuExec, StoreManyWritesAllWords)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        std::vector<std::pair<Addr, std::uint32_t>> stores;
        for (unsigned i = 0; i < 20; ++i) {
            stores.emplace_back(self.scratchBase + 64 + i * 4,
                                1000 + i);
        }
        co_await ctx.storeMany(std::move(stores));
        // Read back through the same L1.
        std::vector<Addr> check_addrs{self.scratchBase + 64,
                                      self.scratchBase + 64 + 19 * 4};
        auto values = co_await ctx.loadMany(std::move(check_addrs));
        self.seen[0] = values[0];
        self.seen[1] = values[1];
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 1000u);
    EXPECT_EQ(wl.seen[1], 1019u);
}

TEST(GpuExec, WaitAdvancesTime)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        Tick before = ctx.now();
        co_await ctx.wait(123);
        self.seen[0] = static_cast<std::uint32_t>(ctx.now() - before);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 123u);
}

TEST(GpuExec, ScratchChargesEnergy)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &)
                          -> SimTask { co_await ctx.scratch(64); });
    SystemConfig config;
    System system(config);
    ASSERT_TRUE(system.run(wl).ok());
    EXPECT_GT(system.energy().component(EnergyComponent::Scratch),
              0.0);
}

TEST(GpuExec, SubTaskComposition)
{
    // A coroutine awaiting a helper coroutine, like the mutex
    // helpers do.
    struct Helper
    {
        static SimTask
        addOne(TbContext &ctx, Addr addr)
        {
            std::uint32_t v = co_await ctx.load(addr);
            co_await ctx.store(addr, v + 1);
        }
    };
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        for (int i = 0; i < 5; ++i)
            co_await Helper::addOne(ctx, self.scratchBase);
        self.seen[0] = co_await ctx.load(self.scratchBase);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.seen[0], 22u); // 17 + 5
}

TEST(GpuExec, TbAssignmentIsRoundRobin)
{
    // TB i runs on CU i % numCus with tbOnCu = i / numCus.
    LambdaWorkload wl(32, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        unsigned expected_cu = ctx.tbGlobal() % ctx.numCus();
        unsigned expected_slot = ctx.tbGlobal() / ctx.numCus();
        if (ctx.cu() == expected_cu && ctx.tbOnCu() == expected_slot)
            ++self.observations;
        co_await ctx.wait(1);
    });
    ASSERT_TRUE(runLambda(wl).ok());
    EXPECT_EQ(wl.observations, 32u);
}

TEST(GpuExec, PerTbRngIsDeterministicAcrossConfigs)
{
    auto collect = [](ProtocolConfig proto) {
        std::vector<std::uint32_t> out(8);
        LambdaWorkload wl(
            8, [&out](TbContext &ctx, LambdaWorkload &) -> SimTask {
                out[ctx.tbGlobal()] =
                    static_cast<std::uint32_t>(ctx.rng().next());
                co_await ctx.wait(1);
            });
        SystemConfig config;
        config.protocol = proto;
        System system(config);
        EXPECT_TRUE(system.run(wl).ok());
        return out;
    };
    EXPECT_EQ(collect(ProtocolConfig::gd()),
              collect(ProtocolConfig::dd()));
}

TEST(GpuExec, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        auto workload = makeScaled("SPM_G", 10);
        SystemConfig config;
        config.protocol = ProtocolConfig::dd();
        System system(config);
        return system.run(*workload).cycles;
    };
    Tick a = run_once();
    Tick b = run_once();
    EXPECT_EQ(a, b);
}

TEST(GpuExec, KernelLaunchLatencyDelaysStart)
{
    LambdaWorkload wl(1, [](TbContext &ctx, LambdaWorkload &self)
                          -> SimTask {
        self.seen[0] = static_cast<std::uint32_t>(ctx.now());
        co_await ctx.wait(1);
    });
    SystemConfig config;
    config.execution.kernelLaunchLatency = 777;
    System system(config);
    ASSERT_TRUE(system.run(wl).ok());
    EXPECT_GE(wl.seen[0], 777u);
}

// ---------------------------------------------------------------------
// Wait-state text (hang diagnostics)
// ---------------------------------------------------------------------

namespace
{

/**
 * L1 stand-in that parks every callback until release(), so a TB's
 * coroutine stays suspended on exactly the awaiter under test.
 */
class ParkingL1 : public L1Controller
{
  public:
    ParkingL1(EventQueue &eq, stats::StatSet &stats,
              EnergyModel &energy)
        : L1Controller("parking_l1", eq, stats, energy, 0,
                       ProtocolConfig::gd())
    {}

    ControllerSnapshot snapshot() const override { return {}; }

    std::vector<std::string>
    checkInvariants(bool) const override
    {
        return {};
    }

    void
    load(Addr, ValueCallback cb) override
    {
        _values.push_back(std::move(cb));
    }

    void
    store(Addr, std::uint32_t, DoneCallback cb) override
    {
        _dones.push_back(std::move(cb));
    }

    void
    sync(const SyncOp &, ValueCallback cb) override
    {
        _values.push_back(std::move(cb));
    }

    void kernelBegin() override {}
    void kernelEnd(DoneCallback cb) override { cb(); }
    void drainWrites(Scope, DoneCallback cb) override { cb(); }

    /** Complete every parked access (lets the coroutine finish). */
    void
    release()
    {
        auto values = std::move(_values);
        auto dones = std::move(_dones);
        _values.clear();
        _dones.clear();
        for (auto &cb : values)
            cb(0);
        for (auto &cb : dones)
            cb();
    }

  private:
    std::vector<ValueCallback> _values;
    std::vector<DoneCallback> _dones;
};

/** One TB context on a ParkingL1, for driving awaiters directly. */
struct WaitHarness
{
    EventQueue eq;
    stats::StatSet stats;
    EnergyModel energy{stats, EnergyParams{}};
    ParkingL1 l1{eq, stats, energy};
    TbContext ctx{eq, l1, energy, Rng(1), /*kernel=*/2,
                  /*tb_global=*/7, /*cu=*/3, /*tb_on_cu=*/1,
                  /*num_cus=*/4, /*tbs_per_cu=*/2};
    bool finished = false;

    SimTask task;

    /**
     * Start @p t at tick @p at (so the recorded wait tick is not
     * trivially 0) and run the queue until the TB parks.
     */
    void
    startAt(Tick at, SimTask t)
    {
        task = std::move(t);
        eq.schedule(at, [this] {
            task.start([this] {
                ctx.markDone();
                finished = true;
            });
        });
        eq.run();
    }
};

const char *const kPrefix = "kernel 2 tb 7 (cu 3): ";

} // namespace

TEST(GpuWaitState, FreshContextIsRunnable)
{
    WaitHarness h;
    EXPECT_EQ(h.ctx.waitSummary(),
              std::string(kPrefix) + "runnable (between awaits)");
}

TEST(GpuWaitState, LoadText)
{
    WaitHarness h;
    h.startAt(40, [](TbContext &ctx) -> SimTask {
        co_await ctx.load(0x1a40);
    }(h.ctx));
    EXPECT_TRUE(h.ctx.waiting());
    EXPECT_EQ(h.ctx.waitSummary(),
              std::string(kPrefix) + "awaiting load 0x1a40 since tick 40");
    h.l1.release();
    EXPECT_TRUE(h.finished);
    EXPECT_EQ(h.ctx.waitSummary(), std::string(kPrefix) + "completed");
}

TEST(GpuWaitState, LoadManyText)
{
    WaitHarness h;
    h.startAt(12, [](TbContext &ctx) -> SimTask {
        std::vector<Addr> addrs{0xbeef00, 0xbeef04, 0xbeef08};
        co_await ctx.loadMany(std::move(addrs));
    }(h.ctx));
    EXPECT_EQ(h.ctx.waitSummary(),
              std::string(kPrefix) +
                  "awaiting loadMany of 3 words at 0xbeef00 since tick "
                  "12");
    h.l1.release();
    EXPECT_TRUE(h.finished);
}

TEST(GpuWaitState, StoreText)
{
    WaitHarness h;
    h.startAt(5, [](TbContext &ctx) -> SimTask {
        co_await ctx.store(0x80, 9);
    }(h.ctx));
    EXPECT_EQ(h.ctx.waitSummary(),
              std::string(kPrefix) + "awaiting store 0x80 since tick 5");
    h.l1.release();
    EXPECT_TRUE(h.finished);
}

TEST(GpuWaitState, StoreManyText)
{
    WaitHarness h;
    h.startAt(1234567, [](TbContext &ctx) -> SimTask {
        std::vector<std::pair<Addr, std::uint32_t>> stores{
            {0x10000, 1}, {0x10004, 2}};
        co_await ctx.storeMany(std::move(stores));
    }(h.ctx));
    EXPECT_EQ(h.ctx.waitSummary(),
              std::string(kPrefix) +
                  "awaiting storeMany of 2 words at 0x10000 since tick "
                  "1234567");
    h.l1.release();
    EXPECT_TRUE(h.finished);
}

TEST(GpuWaitState, DelayText)
{
    WaitHarness h;
    bool checked = false;
    h.startAt(3, [](TbContext &ctx, bool *seen) -> SimTask {
        // Check from inside the queue: run() fires the delay.
        ctx.l1().eventQueue().schedule(ctx.now() + 1, [seen, &ctx] {
            EXPECT_EQ(ctx.waitSummary(),
                      std::string(kPrefix) +
                          "awaiting delay of 250 cycles since tick 3");
            *seen = true;
        });
        co_await ctx.wait(250);
    }(h.ctx, &checked));
    EXPECT_TRUE(checked);
    EXPECT_TRUE(h.finished);
    EXPECT_EQ(h.eq.now(), 253u);
}

TEST(GpuWaitState, AtomicTextForEveryFunctionAndScope)
{
    struct Func
    {
        AtomicFunc func;
        const char *name;
    };
    const Func funcs[] = {
        {AtomicFunc::Load, "atomic-load"},
        {AtomicFunc::Store, "atomic-store"},
        {AtomicFunc::FetchAdd, "fetch-add"},
        {AtomicFunc::Exchange, "exchange"},
        {AtomicFunc::CompareSwap, "compare-swap"},
    };
    struct ScopeName
    {
        Scope scope;
        const char *name;
    };
    const ScopeName scopes[] = {
        {Scope::Local, "local"},
        {Scope::Device, "device"},
        {Scope::Global, "global"},
    };
    for (const Func &f : funcs) {
        for (const ScopeName &s : scopes) {
            WaitHarness h;
            SyncOp op = makeSync(f.func, 0xc0ffee4, 1, 0, s.scope);
            h.startAt(77, [](TbContext &ctx, SyncOp o) -> SimTask {
                co_await ctx.atomic(o);
            }(h.ctx, op));
            EXPECT_EQ(h.ctx.waitSummary(),
                      std::string(kPrefix) + "awaiting " + f.name +
                          " 0xc0ffee4 (" + s.name +
                          " scope) since tick 77");
            h.l1.release();
            EXPECT_TRUE(h.finished);
        }
    }
}

TEST(GpuWaitState, HangReportListsWaitText)
{
    WaitHarness h;
    h.startAt(9, [](TbContext &ctx) -> SimTask {
        co_await ctx.load(0x40);
    }(h.ctx));
    HangReport report;
    report.tbWaits.push_back(h.ctx.waitSummary());
    std::string rendered = renderHangReport(report);
    EXPECT_NE(rendered.find("-- thread blocks (1 incomplete) --\n"
                            "  kernel 2 tb 7 (cu 3): awaiting load 0x40 "
                            "since tick 9\n"),
              std::string::npos)
        << rendered;
    h.l1.release();
    EXPECT_TRUE(h.finished);
}
