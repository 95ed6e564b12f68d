/**
 * @file
 * Measurement engine of the repository benchmark (driven by run.py).
 *
 * Runs one named workload — a fixed set of simulation cells — through
 * the library's public entry points on one thread, timing every call
 * from outside:
 *
 *   setup:  makeScaled + System construction  (litmus: program build)
 *   run:    System::run                       (litmus: exploreCell +
 *                                              axiom::checkCell +
 *                                              axiom::crossCheck)
 *
 * The cell set is repeated until --seconds have been spent in timed
 * repetitions; every repetition must reproduce the first one's
 * simulated digest. With --trace=1 the engine instead runs the
 * traced pass: untraced and traced (and, for apps-racecheck,
 * detector-off) passes of the same cells whose digests must agree,
 * per-layer counts from System::stats(), and isolated probes of the
 * layers' public calls.
 *
 * Output: one JSON object on stdout (cells, timings, layer figures).
 * Correctness verdicts against the reference are run.py's job.
 */

#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "axiom/checker.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "explore/explorer.hh"
#include "explore/litmus.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"
#include "runner/json_writer.hh"
#include "sim/event_queue.hh"
#include "workloads/registry.hh"

using namespace nosync;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Cell-set scale override in percent (0 = workload default). */
    unsigned scale = 0;
    /** Upper bound on timed repetitions (0 = time-bounded only). */
    unsigned maxReps = 0;
    /** Self-test hook: corrupt the first cell's functional check. */
    bool forceFail = false;
};

/** One simulation cell of a workload's fixed cell set. */
struct Cell
{
    std::string workload;
    ProtocolConfig proto;
    unsigned scale = 100;
    unsigned meshDim = 4;
    bool raceCheck = false;

    std::string
    name() const
    {
        return workload + "/" + proto.shortName();
    }
};

/** Exact per-layer counts, by metric name. */
using Counts = std::map<std::string, double>;

/*
 * Host-speed reference sampled inside the timed calls. On a shared
 * host the speed one thread gets drifts by tens of percent, within
 * seconds and over minutes, so every timed call is rescaled by a
 * reference kernel timed while that call ran. SIGPROF fires every
 * kPeriodUs of process CPU time; while a Span is open the handler
 * times kKernelOps steps of a fixed event-queue churn (pop the
 * earliest of 2^18 keys, push it back later by a pseudo-random delay)
 * on a static std::push_heap/std::pop_heap array: standard-library
 * code that no simulator change touches, with no allocation in the
 * handler. The samples' time is subtracted from the span's, and once
 * the pass is over the span's calibrated seconds are its net seconds
 * x (kNominalS / the median sample taken around it) ^ kExponent.
 *
 * Set-up is not sampled: it mostly allocates and fills fresh memory,
 * which evicts the kernel's heap, so samples taken inside it measure
 * that eviction rather than the host. The set-up median is rescaled
 * by the samples of the run phase that follows it instead.
 *
 * Why this kernel: samples taken during the call follow the
 * simulator's speed better than samples taken between cells, which
 * miss the changes inside cells that run for seconds. The 2 MB heap
 * lives in the last-level cache, as much of the simulator's state
 * does, so the kernel slows when other tenants contend for that
 * cache; a 32 KB heap only follows the core's own speed. On ten
 * mesh-8x8 runs the spread of run_s was 0.144 raw, 0.069 with the
 * 32 KB heap, 0.045 with the 2 MB heap and 0.058 with a 32 MB one.
 *
 * Why the exponent: the simulator slows more than the kernel when the
 * host is contended. Over sets of seven to ten runs per workload on
 * the development host, rescaling by the kernel's time to the power
 * 1.5 gave the smallest run_s spread on every workload (e.g. mesh-8x8
 * 0.245 raw, 0.119 at power 1, 0.079 at 1.5; headline 0.170, 0.063,
 * 0.027; litmus-oracles 0.200, 0.093, 0.045).
 */
namespace hostspeed
{

constexpr int kKernelOps = 4000;
/** Kernel time on the development host: calibrated ~ raw there. */
constexpr double kNominalS = 1.0e-3;
constexpr double kExponent = 1.5;
constexpr long kPeriodUs = 50000;
/** Fewest samples a span's median is taken over, widened in time. */
constexpr std::size_t kWindow = 9;
/** Direct kernel runs behind host.calib_ms in the traced run. */
constexpr std::size_t kDirectSamples = 25;
constexpr std::size_t kHeapKeys = std::size_t{1} << 18;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

std::uint64_t heapKeys[kHeapKeys];
std::uint64_t rngState = 0x9e3779b97f4a7c15ull;
double samples[kMaxSamples];
volatile std::sig_atomic_t sampleCount = 0;
volatile std::sig_atomic_t spanOpen = 0;
volatile std::uint64_t sink = 0;

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts); // async-signal-safe
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Seconds one kernel run takes; safe inside the signal handler. */
double
kernelSeconds()
{
    double t0 = monotonicSeconds();
    std::uint64_t x = rngState, sum = 0;
    std::greater<std::uint64_t> later;
    for (int i = 0; i < kKernelOps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::pop_heap(heapKeys, heapKeys + kHeapKeys, later);
        sum += heapKeys[kHeapKeys - 1];
        heapKeys[kHeapKeys - 1] += 1 + (x & 0xffffff);
        std::push_heap(heapKeys, heapKeys + kHeapKeys, later);
    }
    rngState = x;
    sink = sink + sum;
    return monotonicSeconds() - t0;
}

void
addSample(double seconds)
{
    if (static_cast<std::size_t>(sampleCount) < kMaxSamples) {
        samples[sampleCount] = seconds;
        sampleCount = sampleCount + 1;
    }
}

void
onProf(int)
{
    if (spanOpen)
        addSample(kernelSeconds());
}

/**
 * Fill the kernel's heap. With @p in_situ, sample inside every open
 * Span from now on; otherwise time the kernel kDirectSamples times
 * back to back, with its heap in cache.
 */
void
start(bool in_situ)
{
    std::uint64_t x = rngState;
    for (std::uint64_t &key : heapKeys) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        key = x >> 40;
    }
    std::make_heap(heapKeys, heapKeys + kHeapKeys,
                   std::greater<std::uint64_t>());
    if (!in_situ) {
        for (std::size_t i = 0; i < kDirectSamples; ++i)
            addSample(kernelSeconds());
        return;
    }
    struct sigaction sa{};
    sa.sa_handler = onProf;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval every{};
    every.it_interval.tv_usec = kPeriodUs;
    every.it_value.tv_usec = kPeriodUs;
    setitimer(ITIMER_PROF, &every, nullptr);
}

/**
 * Median of the samples in [first, last), widened to the kWindow
 * nearest ones taken so far; kNominalS when there are none.
 */
double
medianAround(std::size_t first, std::size_t last)
{
    std::size_t n = static_cast<std::size_t>(sampleCount);
    if (n == 0)
        return kNominalS;
    if (last - first < kWindow) {
        std::size_t want = std::min(kWindow, n);
        std::size_t mid = (first + last) / 2;
        first = std::min(mid > want / 2 ? mid - want / 2 : 0, n - want);
        last = first + want;
    }
    return median(std::vector<double>(samples + first, samples + last));
}

/** Index of the next sample. */
std::size_t
nextSample()
{
    return static_cast<std::size_t>(sampleCount);
}

/** Median of every sample so far, in seconds. */
double
medianAll()
{
    return median(std::vector<double>(
        samples, samples + static_cast<std::size_t>(sampleCount)));
}

/** A timed call: net host seconds and the samples taken inside. */
struct SpanTime
{
    double netS = 0.0;
    std::size_t first = 0;
    std::size_t last = 0;
};

/** Times one call, net of the kernel samples taken inside it. */
class Span
{
  public:
    Span() : _start(Clock::now()), _first(nextSample())
    {
        std::atomic_signal_fence(std::memory_order_seq_cst);
        spanOpen = 1;
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }

    SpanTime
    close()
    {
        std::atomic_signal_fence(std::memory_order_seq_cst);
        spanOpen = 0;
        std::atomic_signal_fence(std::memory_order_seq_cst);
        double wall = secondsSince(_start);
        std::size_t last = nextSample();
        double in_kernel = 0.0;
        for (std::size_t i = _first; i < last; ++i)
            in_kernel += samples[i];
        return {wall - in_kernel, _first, last};
    }

  private:
    Clock::time_point _start;
    std::size_t _first;
};

/**
 * @p t rescaled by the samples around it. Called once the pass is
 * over, so the window can reach samples taken after the call.
 */
double
calibrated(const SpanTime &t)
{
    return t.netS *
           std::pow(kNominalS / medianAround(t.first, t.last), kExponent);
}

} // namespace hostspeed

/** Simulated result of one cell plus its host-side timings. */
struct CellResult
{
    std::string name;
    std::vector<std::string> failures;
    /** Simulated digest: every value the figures are built from. */
    std::vector<std::pair<std::string, double>> digest;
    RunResult run; ///< simulation cells only
    double genS = 0.0;
    double buildS = 0.0;
    /** Host seconds in the run calls, net of calibration samples. */
    double runS = 0.0;
    std::vector<hostspeed::SpanTime> runSpans;
    Counts counts;
};


/** Host seconds of a pass's run calls, raw and calibrated. */
struct Timing
{
    double rawS = 0.0;
    double calS = 0.0;
};

/** The run timing of a finished pass over @p cells. */
Timing
passTiming(const std::vector<CellResult> &cells)
{
    Timing t;
    for (const CellResult &c : cells) {
        t.rawS += c.runS;
        for (const hostspeed::SpanTime &span : c.runSpans)
            t.calS += hostspeed::calibrated(span);
    }
    return t;
}

/** A whole pass over the cell set. */
struct Pass
{
    std::vector<CellResult> cells;
    Timing run;
};

const std::vector<ProtocolConfig> &
paperColumns()
{
    static const std::vector<ProtocolConfig> cols = {
        ProtocolConfig::gd(), ProtocolConfig::gh(), ProtocolConfig::dd(),
        ProtocolConfig::ddro(), ProtocolConfig::dh()};
    return cols;
}

/** The simulation cell set of @p workload ("" when unknown). */
std::vector<Cell>
cellSet(const std::string &workload, unsigned scale)
{
    std::vector<Cell> cells;
    if (workload == "headline") {
        // bench/headline's matrix, in its order.
        unsigned pct = scale ? scale : 5;
        auto group = [&](const std::string &g,
                         const std::vector<ProtocolConfig> &cols) {
            for (const WorkloadDesc *desc : workloadsInGroup(g)) {
                for (const ProtocolConfig &proto : cols)
                    cells.push_back({desc->name, proto, pct, 4, false});
            }
        };
        group("no-sync", {ProtocolConfig::gd(), ProtocolConfig::dd()});
        group("global-sync",
              {ProtocolConfig::gd(), ProtocolConfig::dd()});
        group("local-sync", paperColumns());
    } else if (workload == "mesh-8x8") {
        // The global-sync half of scale_sweep's 8x8 tier.
        unsigned pct = scale ? scale : 10;
        for (const char *name : {"FAM_G", "SPM_G"}) {
            for (const ProtocolConfig &proto : paperColumns())
                cells.push_back({name, proto, pct, 8, false});
        }
    } else if (workload == "apps-racecheck") {
        unsigned pct = scale ? scale : 100;
        for (const char *name : {"SGEMM", "LUD", "LAVA", "NW"}) {
            for (const ProtocolConfig &proto :
                 {ProtocolConfig::gd(), ProtocolConfig::dd()})
                cells.push_back({name, proto, pct, 4, true});
        }
    }
    return cells;
}

SystemConfig
configFor(const Cell &cell, std::uint64_t seed)
{
    SystemConfig config;
    config.protocol = cell.proto;
    config.topology.mesh.width = cell.meshDim;
    config.topology.mesh.height = cell.meshDim;
    config.topology.cusPerDevice = cell.meshDim * cell.meshDim - 1;
    config.execution.seed = seed;
    config.checking.raceCheckEnabled = cell.raceCheck;
    return config;
}

const char *const kL1Stats[] = {
    "load_hits", "load_misses", "store_hits", "sync_misses",
    "acquire_invalidations", "words_invalidated"};
const char *const kL2Stats[] = {"reads", "atomics", "registrations",
                                "recalls", "forwards", "dram_fetches"};

/**
 * Every exact count the traced run reports. A workload that does not
 * exercise a layer reports zero for it (litmus cells build their
 * Systems inside the explorer, so only explore/axiom counts are seen).
 */
Counts
zeroCounts()
{
    Counts zero;
    for (const char *s : kL1Stats)
        zero[std::string("coherence.l1.") + s] = 0.0;
    for (const char *s : kL2Stats)
        zero[std::string("coherence.l2.") + s] = 0.0;
    for (const char *s :
         {"noc.messages", "noc.flit_crossings", "gpu.tbs_executed",
          "gpu.kernels_launched", "sim.cycles", "analysis.data_accesses",
          "analysis.hb_edges", "analysis.words_tracked",
          "explore.schedules", "explore.pruned", "explore.choice_points",
          "explore.ms", "axiom.interleavings", "axiom.executions",
          "axiom.ms"})
        zero[s] = 0.0;
    return zero;
}

/** Sum each layer's counters over every L1 / L2 bank of @p sys. */
void
collectCounts(System &sys, const RunResult &run, Counts &counts)
{
    stats::StatSet &st = sys.stats();
    auto scalar = [&](const std::string &name) {
        const stats::Scalar *s = st.find(name);
        return s ? s->value() : 0.0;
    };
    auto vector = [&](const std::string &name) {
        const stats::Vector *v = st.findVector(name);
        return v ? v->total() : 0.0;
    };
    for (unsigned cu = 0; cu < sys.numCus(); ++cu) {
        std::string p = "l1." + std::to_string(cu) + ".";
        for (const char *s : kL1Stats)
            counts[std::string("coherence.l1.") + s] += scalar(p + s);
    }
    for (unsigned b = 0; b < sys.numL2Banks(); ++b) {
        std::string p = "l2b" + std::to_string(b) + ".";
        for (const char *s : kL2Stats)
            counts[std::string("coherence.l2.") + s] += scalar(p + s);
    }
    counts["noc.messages"] += vector("noc.messages");
    counts["noc.flit_crossings"] += vector("noc.flit_crossings");
    counts["gpu.tbs_executed"] += scalar("gpu.tbs_executed");
    counts["gpu.kernels_launched"] += scalar("gpu.kernels_launched");
    counts["sim.cycles"] += static_cast<double>(run.cycles);
    counts["analysis.data_accesses"] +=
        static_cast<double>(run.races.dataAccesses);
    counts["analysis.hb_edges"] += static_cast<double>(run.races.hbEdges);
    counts["analysis.words_tracked"] +=
        static_cast<double>(run.races.wordsTracked);
}

std::vector<std::pair<std::string, double>>
simDigest(const RunResult &r)
{
    std::vector<std::pair<std::string, double>> d;
    d.emplace_back("cycles", static_cast<double>(r.cycles));
    for (std::size_t c = 0; c < kNumEnergyComponents; ++c)
        d.emplace_back(std::string("energy.") + energyComponentNames()[c],
                       r.energy[c]);
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
        d.emplace_back(std::string("traffic.") + trafficClassNames()[c],
                       r.traffic[c]);
    return d;
}

/** Knobs of one pass beyond the cell set itself. */
struct PassMode
{
    bool traced = false;
    /** Force the race detector off (detector-overhead pass). */
    bool detectorOff = false;
};

CellResult
runSimCell(const Cell &cell, std::uint64_t seed, const PassMode &mode)
{
    CellResult out;
    out.name = cell.name();
    SystemConfig config = configFor(cell, seed);
    config.observability.traceEnabled = mode.traced;
    if (mode.detectorOff)
        config.checking.raceCheckEnabled = false;

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> workload =
        makeScaled(cell.workload, cell.scale);
    out.genS = secondsSince(t0);
    Clock::time_point t1 = Clock::now();
    System sys(config);
    out.buildS = secondsSince(t1);
    hostspeed::Span span;
    out.run = sys.run(*workload);
    out.runSpans = {span.close()};
    out.runS = out.runSpans.front().netS;

    out.failures = out.run.checkFailures;
    if (out.run.hang && out.failures.empty())
        out.failures.push_back("hang: " + out.run.hang->reason);
    out.digest = simDigest(out.run);
    collectCounts(sys, out.run, out.counts);
    return out;
}

/** Time constructing the cell set's inputs only (no run). */
double
simSetupPass(const std::vector<Cell> &cells, std::uint64_t seed)
{
    double total = 0.0;
    for (const Cell &cell : cells) {
        SystemConfig config = configFor(cell, seed);
        Clock::time_point t0 = Clock::now();
        {
            std::unique_ptr<Workload> workload =
                makeScaled(cell.workload, cell.scale);
            System sys(config);
            total += secondsSince(t0);
        }
    }
    return total;
}

Pass
simPass(const std::vector<Cell> &cells, std::uint64_t seed,
        const PassMode &mode)
{
    Pass pass;
    for (const Cell &cell : cells)
        pass.cells.push_back(runSimCell(cell, seed, mode));
    pass.run = passTiming(pass.cells);
    return pass;
}

// --- litmus-oracles ---------------------------------------------------

struct LitmusCell
{
    std::string program;
    ProtocolConfig proto;
};

/** Every litmus program on every column, in a seed-chosen order. */
std::vector<LitmusCell>
litmusCells(std::uint64_t seed)
{
    std::vector<LitmusCell> cells;
    for (const std::string &program : explore::litmusSuite()) {
        for (const ProtocolConfig &proto :
             {ProtocolConfig::gd(), ProtocolConfig::gh(),
              ProtocolConfig::dd(), ProtocolConfig::ddro(),
              ProtocolConfig::dh(), ProtocolConfig::ddse(),
              ProtocolConfig::ddpr()})
            cells.push_back({program, proto});
    }
    // The verdicts are schedule-exhaustive and seed-free; the seed
    // only fixes the order the cells are visited in.
    Rng rng(seed);
    for (std::size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[rng.below(i)]);
    return cells;
}

double
litmusSetupPass(const std::vector<LitmusCell> &cells)
{
    double total = 0.0;
    for (const LitmusCell &cell : cells) {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<explore::LitmusWorkload> w =
            explore::makeLitmus(cell.program);
        axiom::Program prog = w->axiomProgram();
        total += secondsSince(t0);
    }
    return total;
}

Pass
litmusPass(const std::vector<LitmusCell> &cells)
{
    Pass pass;
    SweepRunner runner(1);
    explore::Explorer explorer(explore::ExploreBudget{}, runner);
    for (const LitmusCell &cell : cells) {
        CellResult out;
        out.name = cell.program + "/" + cell.proto.shortName();
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<explore::LitmusWorkload> w =
            explore::makeLitmus(cell.program);
        out.genS = secondsSince(t0);

        hostspeed::Span explore_span;
        explore::CellReport ex =
            explorer.exploreCell(cell.program, cell.proto);
        out.runSpans.push_back(explore_span.close());
        hostspeed::Span axiom_span;
        axiom::AxiomCellReport ax = axiom::checkCell(*w, cell.proto);
        axiom::CrossCheckResult cc = axiom::crossCheck(ax, ex);
        out.runSpans.push_back(axiom_span.close());
        double explore_s = out.runSpans[0].netS;
        double axiom_s = out.runSpans[1].netS;
        out.runS = explore_s + axiom_s;

        if (ex.verdict != "pass")
            out.failures.push_back("explore verdict " + ex.verdict);
        if (!ax.oracleOk)
            out.failures.push_back("axiom oracle violation");
        if (!cc.checked || !cc.ok)
            out.failures.push_back("cross-check failed");
        for (const std::string &diff : cc.diffs)
            out.failures.push_back(diff);

        // The oracles' answers: reachable outcome sets and race
        // verdicts. Schedule and choice-point counts measure the
        // exploration's work, not its answer, and stay out.
        auto &d = out.digest;
        for (const explore::OutcomeCount &o : ex.outcomes)
            d.emplace_back("explore.outcome[" + o.outcome + "]", 1.0);
        d.emplace_back("explore.any_clean",
                       ex.cleanSchedules != 0 ? 1.0 : 0.0);
        d.emplace_back("explore.any_racy",
                       ex.racySchedules != 0 ? 1.0 : 0.0);
        for (const axiom::AxiomOutcome &o : ax.outcomes)
            d.emplace_back("axiom.outcome[" + o.outcome + "]", 1.0);
        d.emplace_back("axiom.verdict[" + ax.verdict + "]", 1.0);
        d.emplace_back("axiom.data_race_pairs",
                       static_cast<double>(ax.dataRacePairs));
        d.emplace_back("axiom.scope_race_pairs",
                       static_cast<double>(ax.scopeRacePairs));

        out.counts = {
            {"explore.schedules",
             static_cast<double>(ex.schedulesExplored)},
            {"explore.pruned", static_cast<double>(ex.schedulesPruned)},
            {"explore.choice_points",
             static_cast<double>(ex.choicePoints)},
            {"explore.ms", explore_s * 1e3},
            {"axiom.interleavings", static_cast<double>(ax.interleavings)},
            {"axiom.executions", static_cast<double>(ax.executions)},
            {"axiom.ms", axiom_s * 1e3}};

        pass.cells.push_back(std::move(out));
    }
    pass.run = passTiming(pass.cells);
    return pass;
}

// --- layer probes -----------------------------------------------------

/**
 * Median ns per operation of @p batch (which performs @p ops
 * operations), over batches filling roughly @p budget seconds.
 */
double
probe(const std::function<void()> &batch, double ops, double budget)
{
    batch(); // warm caches and lazy allocations
    std::vector<double> samples;
    Clock::time_point start = Clock::now();
    while (samples.size() < 5 || secondsSince(start) < budget) {
        Clock::time_point t0 = Clock::now();
        batch();
        samples.push_back(secondsSince(t0) * 1e9 / ops);
        if (samples.size() >= 100000)
            break;
    }
    return median(samples);
}

/** Probe every layer; each probe gets @p budget seconds of batches. */
std::map<std::string, double>
runProbes(unsigned mesh_dim, double budget)
{
    std::map<std::string, double> out;
    volatile std::uint64_t sink = 0;

    out["sim.probe_ns_per_event"] = probe(
        [&] {
            EventQueue eq;
            std::uint64_t n = 0;
            for (int i = 0; i < 1000; ++i)
                eq.schedule(static_cast<Tick>(i), [&n] { ++n; });
            eq.run();
            sink = sink + n;
        },
        1000, budget);

    {
        EventQueue eq;
        stats::StatSet stats;
        MachineTopology topo;
        topo.mesh.width = mesh_dim;
        topo.mesh.height = mesh_dim;
        topo.cusPerDevice = mesh_dim * mesh_dim - 1;
        Mesh mesh(eq, stats, topo);
        NodeId far = static_cast<NodeId>(mesh_dim * mesh_dim - 1);
        out["noc.probe_ns_per_send"] = probe(
            [&] {
                for (int i = 0; i < 100; ++i) {
                    mesh.send(0, far, 5, TrafficClass::Read, [] {});
                    eq.run();
                }
            },
            100, budget);
    }

    {
        CacheGeometry geo;
        CacheArray array(geo.l1Bytes, geo.l1Assoc);
        Addr lines = geo.l1Bytes / kLineBytes / 2;
        for (Addr line = 0; line < lines; ++line) {
            CacheLine *victim = array.findVictim(line * kLineBytes);
            array.install(*victim, line * kLineBytes);
        }
        out["mem.probe_ns_per_lookup"] = probe(
            [&] {
                std::uint64_t hits = 0;
                for (Addr line = 0; line < 2 * lines; ++line)
                    hits += array.lookup(line * kLineBytes) != nullptr;
                sink = sink + hits;
            },
            static_cast<double>(2 * lines), budget);
    }

    {
        struct Payload
        {
            std::vector<int> waiters;
            bool flag = false;
        };
        CacheGeometry geo;
        MshrTable<Payload> table(geo.l1MshrEntries);
        const Addr batch = geo.l1MshrEntries * 3 / 4;
        Addr next = 0;
        out["mem.probe_ns_per_mshr_op"] = probe(
            [&] {
                std::uint64_t found = 0;
                for (Addr i = 0; i < batch; ++i)
                    table.allocate((next + i) * kLineBytes);
                for (Addr i = 0; i < batch; ++i)
                    found += table.find((next + i) * kLineBytes) !=
                             nullptr;
                for (Addr i = 0; i < batch; ++i)
                    table.deallocate((next + i) * kLineBytes);
                next += batch;
                sink = sink + found;
            },
            static_cast<double>(3 * batch), budget);
    }

    // L1 hit path: loads of one warmed line on DD. Miss path: global
    // fetch-adds on GD, each performed at the home L2 bank.
    Cell probe_cell{"", ProtocolConfig::dd(), 100, mesh_dim, false};
    {
        System sys(configFor(probe_cell, 1));
        Addr addr = sys.alloc(kLineBytes);
        std::uint64_t got = 0;
        sys.l1(0).load(addr, [&](std::uint32_t) { ++got; });
        sys.eventQueue().run();
        out["coherence.probe_ns_per_hit"] = probe(
            [&] {
                for (int i = 0; i < 100; ++i) {
                    sys.l1(0).load(addr, [&](std::uint32_t) { ++got; });
                    sys.eventQueue().run();
                }
            },
            100, budget);
        sink = sink + got;
    }
    {
        probe_cell.proto = ProtocolConfig::gd();
        System sys(configFor(probe_cell, 1));
        Addr addr = sys.alloc(kLineBytes);
        SyncOp op;
        op.func = AtomicFunc::FetchAdd;
        op.addr = addr;
        op.operand = 1;
        op.scope = Scope::Global;
        std::uint64_t got = 0;
        out["coherence.probe_ns_per_miss"] = probe(
            [&] {
                for (int i = 0; i < 100; ++i) {
                    sys.l1(0).sync(op, [&](std::uint32_t) { ++got; });
                    sys.eventQueue().run();
                }
            },
            100, budget);
        sink = sink + got;
    }
    return out;
}

// --- paper claims (headline) -------------------------------------------

/**
 * bench/headline's numeric claims, paper value vs this cell set's
 * measurement, in percent. Cells are in headline's matrix order.
 */
std::vector<std::pair<std::string, std::pair<double, double>>>
paperClaims(const Pass &pass)
{
    std::size_t i = 0;
    auto take = [&](const std::string &group, std::size_t cols) {
        std::vector<WorkloadResults> res;
        for (const WorkloadDesc *desc : workloadsInGroup(group)) {
            WorkloadResults wr;
            wr.workload = desc->name;
            for (std::size_t c = 0; c < cols; ++c)
                wr.runs.push_back(pass.cells.at(i++).run);
            res.push_back(std::move(wr));
        }
        return res;
    };
    auto pct = [](double norm) { return (norm - 1.0) * 100.0; };
    std::vector<std::pair<std::string, std::pair<double, double>>> out;
    auto nosync = take("no-sync", 2);
    out.push_back({"no-sync D* vs G* time",
                   {0.5, pct(averageNormalized(nosync, 0, 1, 0))}});
    out.push_back({"no-sync D* vs G* traffic",
                   {-5.0, pct(averageNormalized(nosync, 2, 1, 0))}});
    auto global = take("global-sync", 2);
    out.push_back({"global-sync D* vs G* time",
                   {-28.0, pct(averageNormalized(global, 0, 1, 0))}});
    out.push_back({"global-sync D* vs G* energy",
                   {-51.0, pct(averageNormalized(global, 1, 1, 0))}});
    out.push_back({"global-sync D* vs G* traffic",
                   {-81.0, pct(averageNormalized(global, 2, 1, 0))}});
    auto local = take("local-sync", 5);
    out.push_back({"local-sync GH vs GD time",
                   {-46.0, pct(averageNormalized(local, 0, 1, 0))}});
    out.push_back({"local-sync GH vs DD time",
                   {-6.0, pct(averageNormalized(local, 0, 1, 2))}});
    out.push_back({"local-sync GH vs DD+RO time",
                   {0.0, pct(averageNormalized(local, 0, 1, 3))}});
    return out;
}

// --- output -------------------------------------------------------------

void
writeCells(JsonWriter &json, const Pass &pass)
{
    json.key("cells").beginArray();
    for (const CellResult &c : pass.cells) {
        json.beginObject();
        json.key("name").value(c.name);
        json.key("failures").beginArray();
        for (const std::string &f : c.failures)
            json.value(f);
        json.endArray();
        json.key("digest").beginObject();
        for (const auto &[k, v] : c.digest)
            json.key(k).value(v);
        json.endObject();
        json.key("events").value(c.run.host.eventsExecuted);
        json.endObject();
    }
    json.endArray();
}

/** Names of cells whose digest differs between two passes. */
std::vector<std::string>
digestMismatches(const Pass &a, const Pass &b)
{
    std::vector<std::string> bad;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        if (i >= b.cells.size() || a.cells[i].digest != b.cells[i].digest ||
            a.cells[i].failures != b.cells[i].failures)
            bad.push_back(a.cells[i].name);
    }
    return bad;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        std::string key = arg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = val;
            continue;
        }
        if (key == "--force-fail" && eq == std::string::npos) {
            opts.forceFail = true;
            continue;
        }
        double num = std::strtod(val.c_str(), &end);
        if (val.empty() || *end != '\0' || num < 0) {
            std::cerr << "error: bad option " << arg << "\n";
            std::exit(2);
        }
        if (key == "--seed")
            opts.seed = static_cast<std::uint64_t>(num);
        else if (key == "--seconds")
            opts.seconds = num;
        else if (key == "--trace")
            opts.trace = num != 0;
        else if (key == "--scale")
            opts.scale = static_cast<unsigned>(num);
        else if (key == "--max-reps")
            opts.maxReps = static_cast<unsigned>(num);
        else {
            std::cerr << "error: unknown option " << arg << "\n";
            std::exit(2);
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    bool litmus = opts.workload == "litmus-oracles";
    std::vector<Cell> cells = cellSet(opts.workload, opts.scale);
    std::vector<LitmusCell> lcells;
    if (litmus)
        lcells = litmusCells(opts.seed);
    if (cells.empty() && lcells.empty()) {
        std::cerr << "error: unknown workload '" << opts.workload
                  << "'\n";
        return 2;
    }

    auto pass = [&](const PassMode &mode) {
        Pass p = litmus ? litmusPass(lcells)
                        : simPass(cells, opts.seed, mode);
        if (opts.forceFail && !p.cells.empty())
            p.cells.front().failures.push_back(
                "forced failure (--force-fail)");
        return p;
    };
    auto setup = [&] {
        return litmus ? litmusSetupPass(lcells)
                      : simSetupPass(cells, opts.seed);
    };

    // The traced run reports raw host times only; its calls are not
    // interrupted by calibration samples.
    hostspeed::start(!opts.trace);

    // Set-up samples first: construction-only passes for about two
    // seconds (at least seven), so the median does not depend on how
    // many timed repetitions fit.
    std::vector<double> setups;
    Clock::time_point setup_start = Clock::now();
    while (setups.size() < 7 || secondsSince(setup_start) < 2.0)
        setups.push_back(setup());
    // Rescaled below by the samples of the run phase.
    hostspeed::SpanTime setup_time{median(setups), hostspeed::nextSample(),
                                   0};

    JsonWriter json(std::cout);
    json.beginObject();
    json.key("workload").value(opts.workload);
    json.key("seed").value(opts.seed);
    json.key("build").beginObject();
    json.key("type").value(PERFBENCH_BUILD_TYPE);
    json.key("compiler").value(PERFBENCH_COMPILER);
    json.key("flags").value(PERFBENCH_CXX_FLAGS);
    json.endObject();

    Pass first;
    std::vector<std::string> unstable;
    if (!opts.trace) {
        std::vector<Timing> runs;
        Clock::time_point start = Clock::now();
        do {
            Pass p = pass(PassMode{});
            runs.push_back(p.run);
            if (runs.size() == 1) {
                first = std::move(p);
            } else {
                for (const std::string &name : digestMismatches(first, p))
                    unstable.push_back(name);
            }
            // Stop before a repetition that would end past the
            // measuring window; the first one always runs.
            double elapsed = secondsSince(start);
            double per_rep = elapsed / static_cast<double>(runs.size());
            if (elapsed + per_rep > opts.seconds * 1.05)
                break;
        } while (opts.maxReps == 0 || runs.size() < opts.maxReps);
        json.key("reps").value(static_cast<std::uint64_t>(runs.size()));
        json.key("run_s").beginArray();
        for (const Timing &t : runs)
            json.value(t.rawS);
        json.endArray();
        json.key("run_calibrated_s").beginArray();
        for (const Timing &t : runs)
            json.value(t.calS);
        json.endArray();
    } else {
        // Traced run: the untraced pass gives counts and the baseline
        // host times; the traced pass (TraceSink on) must reproduce
        // its digests, and its extra host time is the overhead.
        Clock::time_point traced_start = Clock::now();
        first = pass(PassMode{});
        double run_ms = first.run.rawS * 1e3;
        double events = 0, gen = 0, build = 0;
        Counts layer = zeroCounts();
        for (const CellResult &c : first.cells) {
            events += static_cast<double>(c.run.host.eventsExecuted);
            gen += c.genS;
            build += c.buildS;
            for (const auto &[k, v] : c.counts)
                layer[k] += v;
        }
        double cycles = layer["sim.cycles"];
        layer.erase("sim.cycles");

        double trace_overhead = 0.0;
        double detector_overhead = 0.0;
        if (!litmus) {
            Pass traced = pass(PassMode{true, false});
            for (const std::string &name : digestMismatches(first, traced))
                unstable.push_back("traced:" + name);
            trace_overhead = (traced.run.rawS - first.run.rawS) * 1e3;
            bool any_race =
                std::any_of(cells.begin(), cells.end(),
                            [](const Cell &c) { return c.raceCheck; });
            if (any_race) {
                Pass off = pass(PassMode{false, true});
                for (const std::string &name : digestMismatches(first, off))
                    unstable.push_back("detector-off:" + name);
                detector_overhead = (first.run.rawS - off.run.rawS) * 1e3;
            }
        }

        layer["sim.events"] = events;
        layer["sim.events_per_s"] =
            first.run.rawS > 0 ? events / first.run.rawS : 0.0;
        layer["sim.host_ms_per_Mcycle"] =
            cycles > 0 ? run_ms / (cycles / 1e6) : 0.0;
        layer["noc.flits_per_event"] =
            events > 0 ? layer["noc.flit_crossings"] / events : 0.0;
        double hits = layer["coherence.l1.load_hits"];
        double misses = layer["coherence.l1.load_misses"];
        layer["coherence.l1.load_hit_rate"] =
            hits + misses > 0 ? hits / (hits + misses) : 0.0;
        double tbs = layer["gpu.tbs_executed"];
        layer["gpu.events_per_tb"] = tbs > 0 ? events / tbs : 0.0;
        layer["workloads.gen_ms"] = gen * 1e3;
        layer["core.build_ms"] = build * 1e3;
        layer["core.run_ms"] = run_ms;
        layer["analysis.overhead_ms"] = detector_overhead;
        layer["trace.overhead_ms"] = trace_overhead;
        layer["host.calib_ms"] = hostspeed::medianAll() * 1e3;
        double explore_ms = layer["explore.ms"];
        layer["explore.schedules_per_s"] =
            explore_ms > 0 ? layer["explore.schedules"] * 1e3 / explore_ms
                           : 0.0;
        // The probes share what is left of the measuring window.
        constexpr int kProbes = 6;
        double budget = std::max(
            0.25, (opts.seconds - secondsSince(traced_start)) / kProbes);
        unsigned dim = cells.empty() ? 4 : cells.front().meshDim;
        for (const auto &[k, v] : runProbes(dim, budget))
            layer[k] = v;

        json.key("layers").beginObject();
        for (const auto &[k, v] : layer)
            json.key(k).value(v);
        json.endObject();
    }

    json.key("setup_passes").value(
        static_cast<std::uint64_t>(setups.size()));
    setup_time.last = hostspeed::nextSample();
    json.key("setup_s").value(setup_time.netS);
    json.key("setup_calibrated_s").value(hostspeed::calibrated(setup_time));
    json.key("calib_ms").value(hostspeed::medianAll() * 1e3);

    if (opts.workload == "headline") {
        json.key("paper_claims").beginArray();
        for (const auto &[claim, vals] : paperClaims(first)) {
            json.beginObject();
            json.key("claim").value(claim);
            json.key("paper_pct").value(vals.first);
            json.key("measured_pct").value(vals.second);
            json.endObject();
        }
        json.endArray();
    }

    json.key("unstable_cells").beginArray();
    for (const std::string &name : unstable)
        json.value(name);
    json.endArray();
    writeCells(json, first);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    json.key("peak_rss_mb").value(static_cast<double>(usage.ru_maxrss) /
                                  1024.0);
    json.endObject();
    std::cout << "\n";
    return 0;
}
