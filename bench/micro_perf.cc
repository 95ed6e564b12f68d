/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths
 * (event queue, cache array, mesh routing, protocol end-to-end) —
 * useful when optimizing the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "analysis/race_detector.hh"
#include "coherence/region_map.hh"
#include "core/system.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

using namespace nosync;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * Hold model: a steady ~128 pending events, each rescheduling itself
 * on execution with a delta drawn from the simulator's mix (mostly
 * within 64 cycles, a tail out to 4,096) at one of two priorities.
 * One iteration is one executed event.
 */
static void
BM_EventQueueHold(benchmark::State &state)
{
    struct Ctx
    {
        EventQueue eq;
        std::vector<Cycles> deltas;
        std::size_t cursor = 0;
        std::uint64_t fired = 0;
    };
    struct Hold
    {
        Ctx *ctx;
        EventPriority prio;

        void
        operator()() const
        {
            ++ctx->fired;
            const Cycles d =
                ctx->deltas[ctx->cursor++ % ctx->deltas.size()];
            ctx->eq.scheduleIn(d, *this, prio);
        }
    };

    Ctx ctx;
    Rng rng(13);
    ctx.deltas.resize(4096);
    for (Cycles &d : ctx.deltas) {
        const std::uint64_t r = rng.below(1000);
        d = r < 850   ? rng.below(65)
            : r < 990 ? rng.range(65, 256)
                      : rng.range(257, 4096);
    }
    for (unsigned i = 0; i < 128; ++i) {
        const auto prio = i % 2 ? EventPriority::Default
                                : EventPriority::NetworkDelivery;
        ctx.eq.schedule(ctx.deltas[i], Hold{&ctx, prio}, prio);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(ctx.eq.step());
    benchmark::DoNotOptimize(ctx.fired);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold);

static void
BM_CacheArrayLookup(benchmark::State &state)
{
    CacheArray array(32 * 1024, 8);
    for (Addr line = 0; line < 64; ++line) {
        CacheLine *victim = array.findVictim(line * kLineBytes);
        array.install(*victim, line * kLineBytes);
    }
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.lookup(addr));
        addr = (addr + kLineBytes) % (64 * kLineBytes);
    }
}
BENCHMARK(BM_CacheArrayLookup);

static void
BM_MeshSend(benchmark::State &state)
{
    EventQueue eq;
    stats::StatSet stats;
    Mesh mesh(eq, stats);
    for (auto _ : state) {
        mesh.send(0, 15, 5, TrafficClass::Read, [] {});
        eq.run();
    }
}
BENCHMARK(BM_MeshSend);

static void
BM_MeshSend8x8(benchmark::State &state)
{
    EventQueue eq;
    stats::StatSet stats;
    MeshParams params;
    params.width = 8;
    params.height = 8;
    Mesh mesh(eq, stats, params);
    for (auto _ : state) {
        mesh.send(0, 63, 5, TrafficClass::Read, [] {});
        eq.run();
    }
}
BENCHMARK(BM_MeshSend8x8);

static void
BM_MshrChurn(benchmark::State &state)
{
    // Steady-state L1/L2 MSHR traffic: allocate a batch of lines,
    // re-find each (the handler pattern: callbacks re-find() after
    // resuming coroutines), then deallocate. Payload sized like the
    // L2 fetch entry.
    struct Payload
    {
        std::vector<int> waiters;
        bool flag = false;
    };
    MshrTable<Payload> table(64);
    Addr next = 0;
    int sink = 0;
    for (auto _ : state) {
        for (Addr i = 0; i < 48; ++i)
            table.allocate((next + i) * kLineBytes);
        for (Addr i = 0; i < 48; ++i)
            sink += table.find((next + i) * kLineBytes) != nullptr;
        for (Addr i = 0; i < 48; ++i)
            table.deallocate((next + i) * kLineBytes);
        next += 48;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MshrChurn);

static void
BM_RegionMapProbe(benchmark::State &state)
{
    // DD+RO fill-time probe: one isReadOnly per installed word.
    RegionMap map;
    for (Addr r = 0; r < 16; ++r)
        map.addReadOnly(0x10000 + r * 0x1000, 0x800);
    Addr addr = 0;
    int sink = 0;
    for (auto _ : state) {
        sink += map.isReadOnly(0x10000 + (addr & 0xffff));
        addr = addr * 6364136223846793005ull + 1442695040888963407ull;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RegionMapProbe);

static void
BM_RegionMapLineMask(benchmark::State &state)
{
    RegionMap map;
    for (Addr r = 0; r < 16; ++r)
        map.addReadOnly(0x10000 + r * 0x1000, 0x800);
    Addr line = 0;
    WordMask sink = 0;
    for (auto _ : state) {
        sink ^= map.readOnlyMask(0x10000 + (line & 0xffc0));
        line += kLineBytes;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RegionMapLineMask);

static void
BM_WindowBarrier(benchmark::State &state)
{
    // One PDES window round-trip — publish, run every shard, rejoin —
    // with 64 busy domains packed onto state.range(0) threads. This is
    // the per-window fixed cost the engine amortizes against the
    // events each window retires.
    const unsigned threads = static_cast<unsigned>(state.range(0));
    EventQueue coordinator;
    PdesEngine engine(64, threads, 4, coordinator);
    int sink = 0;
    // Self-rescheduling tick per domain: every window retires exactly
    // one event per shard and leaves the next one pending.
    struct Ticker
    {
        PdesEngine *engine;
        unsigned d;
        int *sink;
        void
        operator()() const
        {
            ++*sink;
            EventQueue &shard = engine->shard(d);
            shard.schedule(shard.now() + 4, Ticker{engine, d, sink});
        }
    };
    for (unsigned d = 0; d < 64; ++d)
        engine.shard(d).schedule(2, Ticker{&engine, d, &sink});
    Tick end = 4;
    for (auto _ : state) {
        engine.benchWindow(end);
        end += 4;
    }
    benchmark::DoNotOptimize(sink);
    state.SetLabel("64 domains, " + std::to_string(threads) +
                   " thread(s)");
}
BENCHMARK(BM_WindowBarrier)->Arg(1)->Arg(2)->Arg(4);

static void
BM_DomainFifo(benchmark::State &state)
{
    // Cross-domain send deposit + canonical collection: 16 domains
    // each push 8 sends per window, then the barrier merges them in
    // (tick, domain, sequence) order — the engine's per-window
    // cross-domain bookkeeping cost.
    EventQueue coordinator;
    PdesEngine engine(16, 1, 8, coordinator);
    std::size_t sink = 0;
    for (auto _ : state) {
        for (unsigned d = 0; d < 16; ++d) {
            PdesEngine::DomainScope scope(static_cast<int>(d));
            for (unsigned i = 0; i < 8; ++i) {
                PdesEngine::MeshSend send;
                send.src = static_cast<NodeId>(d);
                send.dst = static_cast<NodeId>((d + 1) % 16);
                send.flits = 5;
                send.sent = i;
                engine.pushSend(std::move(send));
            }
        }
        std::vector<PdesEngine::MeshSend> &sends =
            engine.collectSends();
        sink += sends.size();
        sends.clear();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_DomainFifo);

/**
 * Race detector on a shared tile: 32 thread blocks each read every
 * word of a 4 KB tile (so each word carries 32 readers), the kernel
 * drains, and a second kernel writes each word once. The drain
 * orders every pair, so the run reports no race and the time is
 * all shadow lookups and reader scans. Reported per checked access,
 * detector construction included.
 */
static void
BM_RaceDetectorSharedRead(benchmark::State &state)
{
    constexpr unsigned kSlots = 32;
    constexpr Addr kTile = 0x10000;
    constexpr unsigned kWords = 4096 / kWordBytes;
    for (auto _ : state) {
        analysis::RaceDetector det(ProtocolConfig::gd());
        Tick tick = 0;
        for (unsigned tb = 0; tb < kSlots; ++tb) {
            unsigned slot = det.tbStarted(0, tb, tb % 16);
            for (unsigned w = 0; w < kWords; ++w)
                det.dataRead(slot, kTile + w * kWordBytes, ++tick);
        }
        for (unsigned slot = 0; slot < kSlots; ++slot)
            det.tbFinished(slot);
        for (unsigned tb = 0; tb < kSlots; ++tb) {
            unsigned slot = det.tbStarted(1, tb, tb % 16);
            for (unsigned w = tb; w < kWords; w += kSlots)
                det.dataWrite(slot, kTile + w * kWordBytes, ++tick);
        }
        analysis::RaceReport report = det.finalize("tile", "GD");
        benchmark::DoNotOptimize(report.racesDetected);
    }
    state.counters["s_per_access"] = benchmark::Counter(
        kSlots * kWords + kWords,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.SetLabel("32 readers per word, then one writer");
}
BENCHMARK(BM_RaceDetectorSharedRead);

static void
BM_EndToEndNN(benchmark::State &state)
{
    for (auto _ : state) {
        auto workload = makeScaled("NN", 100);
        SystemConfig config;
        System system(config);
        RunResult result = system.run(*workload);
        benchmark::DoNotOptimize(result.cycles);
    }
    state.SetLabel("full NN run on DD");
}
BENCHMARK(BM_EndToEndNN)->Unit(benchmark::kMillisecond);

static void
BM_EndToEndSpinMutex(benchmark::State &state)
{
    for (auto _ : state) {
        auto workload = makeScaled("SPM_L", 10);
        SystemConfig config;
        config.protocol = ProtocolConfig::dh();
        System system(config);
        RunResult result = system.run(*workload);
        benchmark::DoNotOptimize(result.cycles);
    }
    state.SetLabel("SPM_L at 10% scale on DH");
}
BENCHMARK(BM_EndToEndSpinMutex)->Unit(benchmark::kMillisecond);

// Global-scope mutex on GH: every release drains the L1's dirty
// words (the dirty-frame index) and every acquire spins through the
// TB awaiters, so this cell tracks the serial hot path of the
// global-sync figures.
static void
BM_EndToEndGlobalMutexGH(benchmark::State &state)
{
    for (auto _ : state) {
        auto workload = makeScaled("FAM_G", 10);
        SystemConfig config;
        config.protocol = ProtocolConfig::gh();
        System system(config);
        RunResult result = system.run(*workload);
        benchmark::DoNotOptimize(result.cycles);
    }
    state.SetLabel("FAM_G at 10% scale on GH");
}
BENCHMARK(BM_EndToEndGlobalMutexGH)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
