/**
 * @file
 * Happens-before race detector tests: vector-clock unit tests driven
 * directly through the RaceDetector API, litmus-style racy/race-free
 * workload pairs run through the full System on every configuration,
 * a differential check of the detector against a map-and-vector
 * reference on random access streams, and the bitwise-identity
 * guarantee that race checking off changes nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "analysis/race_detector.hh"
#include "sim/rng.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

using namespace nosync;
using namespace nosync::analysis;
using namespace nosync::test;

namespace
{

SyncOp
releaseOp(Addr addr, unsigned slot, Scope scope = Scope::Global)
{
    SyncOp op;
    op.func = AtomicFunc::Store;
    op.addr = addr;
    op.operand = 1;
    op.scope = scope;
    op.sem = SyncSemantics::Release;
    op.tb = slot;
    return op;
}

SyncOp
acquireOp(Addr addr, unsigned slot, Scope scope = Scope::Global)
{
    SyncOp op;
    op.func = AtomicFunc::Load;
    op.addr = addr;
    op.scope = scope;
    op.sem = SyncSemantics::Acquire;
    op.tb = slot;
    return op;
}

// ---------------------------------------------------------------------
// Unit tests: the clock engine, driven directly
// ---------------------------------------------------------------------

TEST(RaceDetectorUnit, MessagePassingWithFenceIsRaceFree)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod), 20);
    det.syncPerformed(acquireOp(0x200, cons), 30);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-mp", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
    EXPECT_GT(report.hbEdges, 0u);
    EXPECT_EQ(report.dataAccesses, 2u);
    EXPECT_EQ(report.syncPerforms, 2u);
}

TEST(RaceDetectorUnit, MessagePassingWithoutFenceRaces)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-mp-nofence", "GD");
    ASSERT_EQ(report.racesDetected, 1u);
    ASSERT_EQ(report.races.size(), 1u);
    const RaceRecord &race = report.races.front();
    EXPECT_EQ(race.kind, RaceKind::Data);
    EXPECT_EQ(race.addr, 0x100u);
    EXPECT_EQ(race.first.tb, 0u);
    EXPECT_EQ(race.first.kind, AccessKind::Store);
    EXPECT_EQ(race.second.tb, 1u);
    EXPECT_EQ(race.second.kind, AccessKind::Load);
    EXPECT_EQ(report.failureCount(), 1u);
}

TEST(RaceDetectorUnit, ReleaseOpensFreshEpoch)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cons = det.tbStarted(0, 1, 1);

    det.syncPerformed(releaseOp(0x200, prod), 10);
    det.syncPerformed(acquireOp(0x200, cons), 20);
    // Written only after the release: the acquire must not cover it.
    det.dataWrite(prod, 0x100, 30);
    det.dataRead(cons, 0x100, 40);

    RaceReport report = det.finalize("unit-epoch", "GD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, SyncSyncConflictsNeverRace)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);

    // Two TBs hammer one flag word with unordered atomics: that is
    // what synchronization is for, not a race.
    det.syncPerformed(releaseOp(0x200, a), 10);
    det.syncPerformed(releaseOp(0x200, b), 11);
    det.syncPerformed(acquireOp(0x200, a), 12);
    det.syncPerformed(acquireOp(0x200, b), 13);

    RaceReport report = det.finalize("unit-syncsync", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, MixedSyncDataConflictRaces)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);

    // One TB treats the word as a flag, the other as plain data.
    det.syncPerformed(releaseOp(0x200, a), 10);
    det.dataRead(b, 0x200, 20);

    RaceReport report = det.finalize("unit-mixed", "GD");
    ASSERT_EQ(report.racesDetected, 1u);
    EXPECT_TRUE(report.races.front().first.sync());
    EXPECT_FALSE(report.races.front().second.sync());
}

TEST(RaceDetectorUnit, LocalScopeEdgeOnlyReachesSameCu)
{
    // Under HRF, a local release on CU 0 orders a same-CU acquire but
    // not a cross-CU one; the cross-CU pair is a *scope* race since
    // the shadow all-global clocks do order it.
    RaceDetector det(ProtocolConfig::gh());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned same = det.tbStarted(0, 1, 0);
    unsigned cross = det.tbStarted(0, 2, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, same, Scope::Local), 30);
    det.dataRead(same, 0x100, 40);

    RaceReport clean = det.finalize("unit-local-samecu", "GH");
    EXPECT_EQ(clean.racesDetected, 0u);

    RaceDetector det2(ProtocolConfig::gh());
    prod = det2.tbStarted(0, 0, 0);
    cross = det2.tbStarted(0, 1, 1);
    det2.dataWrite(prod, 0x100, 10);
    det2.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det2.syncPerformed(acquireOp(0x200, cross, Scope::Global), 30);
    det2.dataRead(cross, 0x100, 40);

    RaceReport report = det2.finalize("unit-local-crosscu", "GH");
    ASSERT_EQ(report.racesDetected, 1u);
    EXPECT_EQ(report.races.front().kind, RaceKind::Scope);
}

TEST(RaceDetectorUnit, ScopeAnnotationsIgnoredUnderDrf)
{
    // The same mis-scoped stream is race-free under GD: DRF promotes
    // every sync to global scope (ProtocolConfig::effectiveScope).
    RaceDetector det(ProtocolConfig::gd());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned cross = det.tbStarted(0, 1, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, cross, Scope::Global), 30);
    det.dataRead(cross, 0x100, 40);

    RaceReport report = det.finalize("unit-drf-scopes", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, HrfIndirectTransitivityThroughRelay)
{
    // data -> local release -> same-CU relay -> global release ->
    // cross-CU acquire: the HRF-Indirect chain orders the far read.
    RaceDetector det(ProtocolConfig::dh());
    unsigned prod = det.tbStarted(0, 0, 0);
    unsigned relay = det.tbStarted(0, 1, 0);
    unsigned obs = det.tbStarted(0, 2, 1);

    det.dataWrite(prod, 0x100, 10);
    det.syncPerformed(releaseOp(0x200, prod, Scope::Local), 20);
    det.syncPerformed(acquireOp(0x200, relay, Scope::Local), 30);
    det.syncPerformed(releaseOp(0x300, relay, Scope::Global), 40);
    det.syncPerformed(acquireOp(0x300, obs, Scope::Global), 50);
    det.dataRead(obs, 0x100, 60);

    RaceReport report = det.finalize("unit-transitive", "DH");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, KernelBoundaryOrdersAcrossKernels)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned k0 = det.tbStarted(0, 0, 0);
    det.dataWrite(k0, 0x100, 10);
    det.tbFinished(k0);

    unsigned k1 = det.tbStarted(1, 0, 1);
    det.dataRead(k1, 0x100, 1000);

    RaceReport report = det.finalize("unit-kernel", "GD");
    EXPECT_EQ(report.racesDetected, 0u);
}

TEST(RaceDetectorUnit, WriteWriteConflictRaces)
{
    RaceDetector det(ProtocolConfig::dd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataWrite(b, 0x100, 20);

    RaceReport report = det.finalize("unit-ww", "DD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, DuplicatePairsReportedOnce)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    for (Tick t = 20; t < 30; ++t)
        det.dataRead(b, 0x100, t);

    RaceReport report = det.finalize("unit-dedup", "GD");
    EXPECT_EQ(report.racesDetected, 1u);
}

TEST(RaceDetectorUnit, SuppressionsExcludeRangesFromFailures)
{
    RaceDetector det(ProtocolConfig::gd());
    det.setSuppressions({{0x100, 8, "intentionally racy scratch"}});
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataRead(b, 0x100, 20);
    det.dataWrite(a, 0x180, 30);
    det.dataRead(b, 0x180, 40);

    RaceReport report = det.finalize("unit-suppress", "GD");
    EXPECT_EQ(report.racesDetected, 2u);
    EXPECT_EQ(report.racesSuppressed, 1u);
    EXPECT_EQ(report.failureCount(), 1u);
    EXPECT_TRUE(report.races.front().suppressed);
    EXPECT_EQ(report.races.front().suppressReason,
              "intentionally racy scratch");
    EXPECT_FALSE(report.races.back().suppressed);
}

TEST(RaceDetectorUnit, RecordsSortedByTickThenAddress)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x300, 10);
    det.dataWrite(a, 0x100, 11);
    det.dataWrite(a, 0x200, 12);
    det.dataRead(b, 0x300, 50);
    det.dataRead(b, 0x200, 50);
    det.dataRead(b, 0x100, 60);

    RaceReport report = det.finalize("unit-sort", "GD");
    ASSERT_EQ(report.races.size(), 3u);
    EXPECT_EQ(report.races[0].addr, 0x200u);
    EXPECT_EQ(report.races[1].addr, 0x300u);
    EXPECT_EQ(report.races[2].addr, 0x100u);
}

TEST(RaceDetectorUnit, JsonEmissionWrites)
{
    RaceDetector det(ProtocolConfig::gh());
    unsigned a = det.tbStarted(0, 0, 0);
    unsigned b = det.tbStarted(0, 1, 1);
    det.dataWrite(a, 0x100, 10);
    det.dataRead(b, 0x100, 20);
    RaceReport report = det.finalize("unit-json", "GH");

    std::string path = ::testing::TempDir() + "race_unit.json";
    ASSERT_TRUE(writeRaceJson(report, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    EXPECT_NE(text.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(text.find("\"unit-json\""), std::string::npos);
    EXPECT_NE(text.find("\"races_detected\":1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(RaceDetectorDeathTest, UnalignedAddressPanics)
{
    RaceDetector det(ProtocolConfig::gd());
    unsigned slot = det.tbStarted(0, 0, 0);
    EXPECT_DEATH(det.dataRead(slot, 0x102, 10), "unaligned");
    EXPECT_DEATH(det.dataWrite(slot, 0x101, 10), "unaligned");
    EXPECT_DEATH(det.syncPerformed(releaseOp(0x203, slot), 10),
                 "unaligned");
}

// ---------------------------------------------------------------------
// Differential check against the map-and-vector reference: the
// line-keyed shadow must reproduce every report field and record.
// ---------------------------------------------------------------------

/**
 * The detector's algorithm with one hash-map entry per shadow word:
 * the same clocks, reader lists, dedup, cap and sort, kept short.
 */
class ReferenceDetector
{
  public:
    ReferenceDetector(const ProtocolConfig &config, unsigned devices,
                      unsigned cusPerDevice, std::size_t cap)
        : _config(config),
          _hrf(config.consistency == ConsistencyModel::Hrf),
          _cusPerDevice(cusPerDevice ? cusPerDevice : 1),
          _multiDevice(devices > 1), _cap(cap)
    {}

    unsigned
    tbStarted(unsigned kernel, unsigned tb, unsigned cu)
    {
        auto slot = static_cast<unsigned>(_tbs.size());
        Tb state{kernel, tb, cu, cu / _cusPerDevice, _base, _baseDrf};
        state.real.resize(std::max<std::size_t>(state.real.size(),
                                                slot + 1));
        state.real[slot] = 1;
        if (_hrf) {
            state.drf.resize(std::max<std::size_t>(state.drf.size(),
                                                   slot + 1));
            state.drf[slot] = 1;
        }
        _tbs.push_back(std::move(state));
        return slot;
    }

    void
    tbFinished(unsigned slot)
    {
        join(_base, _tbs[slot].real);
        if (_hrf)
            join(_baseDrf, _tbs[slot].drf);
    }

    void
    dataRead(unsigned slot, Addr addr, Tick tick)
    {
        ++_report.dataAccesses;
        read(slot, addr, tick, AccessKind::Load);
    }

    void
    dataWrite(unsigned slot, Addr addr, Tick tick)
    {
        ++_report.dataAccesses;
        write(slot, addr, tick, AccessKind::Store);
    }

    void
    syncPerformed(const SyncOp &op, Tick tick)
    {
        ++_report.syncPerforms;
        Tb &tb = _tbs[op.tb];
        Scope scope = _config.effectiveScope(op.scope);
        Var &var = _vars[op.addr];
        var.perCu.resize(std::max<std::size_t>(var.perCu.size(),
                                               tb.cu + 1));
        if (_multiDevice)
            var.perDevice.resize(std::max<std::size_t>(
                var.perDevice.size(), tb.device + 1));
        bool device = _multiDevice && scope != Scope::Local;
        bool global = scope == Scope::Global ||
                      (!_multiDevice && scope == Scope::Device);
        if (op.isAcquire()) {
            acquire(tb.real, var.perCu[tb.cu]);
            if (device)
                acquire(tb.real, var.perDevice[tb.device]);
            if (global)
                acquire(tb.real, var.global);
            if (_hrf)
                join(tb.drf, var.drf);
        }
        if (op.func == AtomicFunc::Load)
            read(op.tb, op.addr, tick, AccessKind::AtomicLoad);
        else
            write(op.tb, op.addr, tick,
                  op.func == AtomicFunc::Store ? AccessKind::AtomicStore
                                               : AccessKind::AtomicRmw);
        if (op.isRelease()) {
            join(var.perCu[tb.cu], tb.real);
            if (device)
                join(var.perDevice[tb.device], tb.real);
            if (global)
                join(var.global, tb.real);
            if (_hrf) {
                join(var.drf, tb.drf);
                tb.drf[op.tb] += 1;
            }
            tb.real[op.tb] += 1;
        }
    }

    void
    setSuppressions(std::vector<RaceSuppression> suppressions)
    {
        _suppressions = std::move(suppressions);
    }

    RaceReport
    finalize(const std::string &workload, const std::string &config)
    {
        RaceReport report = _report;
        report.enabled = true;
        report.workload = workload;
        report.config = config;
        report.wordsTracked = _shadow.size();
        report.truncated = report.recordsDropped != 0;
        std::stable_sort(report.races.begin(), report.races.end(),
                         [](const RaceRecord &a, const RaceRecord &b) {
                             return std::tie(a.second.tick, a.addr) <
                                    std::tie(b.second.tick, b.addr);
                         });
        for (const RaceRecord &race : report.races)
            report.racesSuppressed += race.suppressed;
        return report;
    }

  private:
    using Clock = std::vector<std::uint32_t>;

    struct Tb
    {
        unsigned kernel, tb, cu, device;
        Clock real, drf;
    };

    struct Var
    {
        Clock global, drf;
        std::vector<Clock> perCu, perDevice;
    };

    struct Access
    {
        std::uint32_t slot = kNoRaceSlot, clock = 0, drfClock = 0;
        Tick tick = 0;
        AccessKind kind = AccessKind::Load;
    };

    struct Word
    {
        Access write;
        std::vector<Access> readers;
    };

    static std::uint32_t
    at(const Clock &clock, std::uint32_t slot)
    {
        return slot < clock.size() ? clock[slot] : 0;
    }

    static void
    join(Clock &into, const Clock &from)
    {
        into.resize(std::max(into.size(), from.size()));
        for (std::size_t i = 0; i < from.size(); ++i)
            into[i] = std::max(into[i], from[i]);
    }

    void
    acquire(Clock &into, const Clock &published)
    {
        if (published.empty())
            return;
        join(into, published);
        ++_report.hbEdges;
    }

    static bool
    isSync(AccessKind kind)
    {
        return kind != AccessKind::Load && kind != AccessKind::Store;
    }

    /** @p prev conflicts with @p slot's @p kind access and is unordered. */
    bool
    races(const Access &prev, unsigned slot, AccessKind kind) const
    {
        return prev.slot != kNoRaceSlot && prev.slot != slot &&
               !(isSync(prev.kind) && isSync(kind)) &&
               prev.clock > at(_tbs[slot].real, prev.slot);
    }

    Access
    access(unsigned slot, Tick tick, AccessKind kind) const
    {
        const Tb &tb = _tbs[slot];
        std::uint32_t clock = at(tb.real, slot);
        return {slot, clock, _hrf ? at(tb.drf, slot) : clock, tick, kind};
    }

    void
    report(Addr addr, const Access &prev, unsigned slot, Tick tick,
           AccessKind kind)
    {
        if (!_seen.emplace(addr, prev.slot, slot).second)
            return;
        ++_report.racesDetected;
        const Tb &first = _tbs[prev.slot];
        const Tb &second = _tbs[slot];
        bool drf_ordered =
            _hrf && prev.drfClock <= at(second.drf, prev.slot);
        RaceRecord record;
        record.kind = drf_ordered ? RaceKind::Scope : RaceKind::Data;
        record.addr = addr;
        record.first = {first.kernel, first.tb, first.cu, prev.tick,
                        prev.kind};
        record.second = {second.kernel, second.tb, second.cu, tick, kind};
        for (const RaceSuppression &range : _suppressions) {
            if (addr >= range.base && addr < range.base + range.bytes) {
                record.suppressed = true;
                record.suppressReason = range.reason;
                break;
            }
        }
        if (_report.races.size() < _cap)
            _report.races.push_back(std::move(record));
        else
            ++_report.recordsDropped;
    }

    void
    read(unsigned slot, Addr addr, Tick tick, AccessKind kind)
    {
        Word &word = _shadow[addr];
        if (races(word.write, slot, kind))
            report(addr, word.write, slot, tick, kind);
        for (Access &reader : word.readers) {
            if (reader.slot == slot) {
                reader = access(slot, tick, kind);
                return;
            }
        }
        word.readers.push_back(access(slot, tick, kind));
    }

    void
    write(unsigned slot, Addr addr, Tick tick, AccessKind kind)
    {
        Word &word = _shadow[addr];
        if (races(word.write, slot, kind))
            report(addr, word.write, slot, tick, kind);
        for (const Access &reader : word.readers)
            if (races(reader, slot, kind))
                report(addr, reader, slot, tick, kind);
        word.write = access(slot, tick, kind);
        word.readers.clear();
    }

    ProtocolConfig _config;
    bool _hrf;
    unsigned _cusPerDevice;
    bool _multiDevice;
    std::size_t _cap;
    std::vector<Tb> _tbs;
    Clock _base, _baseDrf;
    std::unordered_map<Addr, Word> _shadow;
    std::unordered_map<Addr, Var> _vars;
    std::set<std::tuple<Addr, std::uint32_t, std::uint32_t>> _seen;
    std::vector<RaceSuppression> _suppressions;
    RaceReport _report;
};

/** Every report field and record, one line each. */
std::string
dumpReport(const RaceReport &report)
{
    std::ostringstream os;
    os << report.enabled << ' ' << report.workload << ' '
       << report.config << " accesses=" << report.dataAccesses
       << " syncs=" << report.syncPerforms << " edges=" << report.hbEdges
       << " words=" << report.wordsTracked
       << " detected=" << report.racesDetected
       << " suppressed=" << report.racesSuppressed
       << " dropped=" << report.recordsDropped
       << " truncated=" << report.truncated << '\n';
    for (const RaceRecord &race : report.races) {
        os << (race.kind == RaceKind::Scope ? "scope " : "data ")
           << std::hex << race.addr << std::dec;
        for (const RaceAccess *side : {&race.first, &race.second})
            os << " [" << side->kernel << ' ' << side->tb << ' '
               << side->cu << ' ' << side->tick << ' '
               << accessKindName(side->kind) << ']';
        os << ' ' << race.suppressed << ' ' << race.suppressReason
           << '\n';
    }
    return os.str();
}

/**
 * Drive one fixed-seed random stream through detector type D:
 * several kernels of TBs on random CUs (every TB finishes at the
 * kernel's drain), data reads and writes, and atomics of every
 * function, scope and semantics. Addresses come from three patterns
 * aimed at the last-line cache: words of one line, words straddling
 * a line boundary, and two lines taken in alternation. Sync words
 * share the data lines, so mixed sync/data conflicts occur too.
 */
template <typename D>
RaceReport
runRandomStream(std::uint64_t seed)
{
    static const ProtocolConfig configs[] = {
        ProtocolConfig::gd(), ProtocolConfig::gh(),
        ProtocolConfig::ddse()};
    const ProtocolConfig &config = configs[seed % 3];
    const unsigned devices = seed % 2 ? 1 : 2;
    const unsigned cus = 4;
    const std::size_t cap = seed % 4 < 2 ? 4 : RaceDetector::kMaxRecords;

    D det(config, devices, cus / devices, cap);
    det.setSuppressions({{0x2038, 8, "straddle scratch"}});
    Rng rng(seed);
    Tick tick = 0;
    bool alternate = false;
    auto pickAddr = [&]() -> Addr {
        switch (rng.below(3)) {
          case 0: // one line
            return 0x1000 + 4 * rng.below(kWordsPerLine);
          case 1: // across the 0x2040 line boundary
            return 0x2030 + 4 * rng.below(8);
          default: // alternating lines
            alternate = !alternate;
            return (alternate ? 0x3000 : 0x5000) + 4 * rng.below(4);
        }
    };

    for (unsigned kernel = 0; kernel < 3; ++kernel) {
        std::vector<unsigned> slots;
        const auto tbs = static_cast<unsigned>(rng.range(2, 6));
        for (unsigned tb = 0; tb < tbs; ++tb)
            slots.push_back(det.tbStarted(
                kernel, tb, static_cast<unsigned>(rng.below(cus))));
        for (unsigned i = 0; i < 400; ++i) {
            tick += rng.below(3); // repeats exercise the sort's tie rule
            unsigned slot = slots[rng.below(slots.size())];
            std::uint64_t what = rng.below(10);
            if (what < 4) {
                det.dataRead(slot, pickAddr(), tick);
            } else if (what < 7) {
                det.dataWrite(slot, pickAddr(), tick);
            } else {
                SyncOp op;
                op.func = static_cast<AtomicFunc>(rng.below(5));
                op.addr = pickAddr();
                op.scope = static_cast<Scope>(rng.below(3));
                op.sem = static_cast<SyncSemantics>(rng.below(3));
                op.tb = slot;
                det.syncPerformed(op, tick);
            }
        }
        for (unsigned slot : slots)
            det.tbFinished(slot);
    }
    return det.finalize("random-" + std::to_string(seed),
                        config.shortName());
}

/** RaceDetector behind the reference's constructor signature. */
class CappedDetector : public RaceDetector
{
  public:
    CappedDetector(const ProtocolConfig &config, unsigned devices,
                   unsigned cusPerDevice, std::size_t cap)
        : RaceDetector(config, devices, cusPerDevice)
    {
        setRecordCap(cap);
    }
};

TEST(RaceDetectorDifferential, RandomStreamsMatchReference)
{
    bool truncated = false, scope = false;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RaceReport want = runRandomStream<ReferenceDetector>(seed);
        RaceReport got = runRandomStream<CappedDetector>(seed);
        EXPECT_EQ(dumpReport(got), dumpReport(want)) << "seed " << seed;
        truncated |= want.truncated;
        for (const RaceRecord &race : want.races)
            scope |= race.kind == RaceKind::Scope;
    }
    // The streams must reach the cap and the HRF scope-race path.
    EXPECT_TRUE(truncated);
    EXPECT_TRUE(scope);
}

// ---------------------------------------------------------------------
// Litmus workloads run through the full System
// ---------------------------------------------------------------------

/**
 * Message passing with a configurable fence: TB0 (CU 0) writes data
 * and releases a flag at @p rel scope; TB1 (CU 1) waits long enough
 * for the release to have performed, acquires the flag at @p acq
 * scope, and reads the data. With the fence elided there is no HB
 * path at all; with a local-scope release and a cross-CU reader the
 * path exists only under the all-global shadow — a scope race.
 *
 * The consumer deliberately delays instead of spinning: a mis-scoped
 * flag is not guaranteed to ever become visible cross-CU, and the
 * detector's verdict must not depend on the racy value read.
 */
class MpLitmus : public Workload
{
  public:
    MpLitmus(bool fenced, Scope rel, Scope acq)
        : _fenced(fenced), _rel(rel), _acq(acq)
    {}

    std::string name() const override { return "litmus-race-mp"; }

    void
    init(WorkloadEnv &env) override
    {
        _data = env.alloc(kLineBytes);
        _flag = env.alloc(kLineBytes);
    }

    KernelInfo kernelInfo(unsigned) const override { return {2}; }

    SimTask
    tbMain(TbContext &ctx) override
    {
        if (ctx.tbGlobal() == 0) {
            co_await ctx.store(_data, 41);
            if (_fenced)
                co_await ctx.atomic(ctx.atomicStore(_flag, 1, _rel));
            co_return;
        }
        co_await ctx.wait(50000);
        if (_fenced)
            co_await ctx.atomic(ctx.atomicLoad(_flag, _acq));
        co_await ctx.load(_data);
    }

  private:
    bool _fenced;
    Scope _rel, _acq;
    Addr _data = 0, _flag = 0;
};

/** MpLitmus without the fence, with the race suppressed. */
class SuppressedMpLitmus : public MpLitmus
{
  public:
    SuppressedMpLitmus() : MpLitmus(false, Scope::Global, Scope::Global)
    {}

    void
    init(WorkloadEnv &env) override
    {
        _base = env.alloc(kLineBytes);
        MpLitmus::init(env);
    }

    std::vector<RaceSuppression>
    raceSuppressions() const override
    {
        // The racy word is the first one MpLitmus::init allocates,
        // one line above our marker allocation.
        return {{_base + kLineBytes, kLineBytes,
                 "deliberately racy litmus data"}};
    }

  private:
    Addr _base = 0;
};

RunResult
runRaceChecked(Workload &workload, const ProtocolConfig &proto)
{
    SystemConfig config;
    config.protocol = proto;
    config.checking.raceCheckEnabled = true;
    System system(config);
    return system.run(workload);
}

class RaceLitmusTest : public ::testing::TestWithParam<ProtocolConfig>
{
};

TEST_P(RaceLitmusTest, FencedMessagePassingIsRaceFree)
{
    MpLitmus workload(true, Scope::Global, Scope::Global);
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_TRUE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 0u);
    EXPECT_GT(result.races.hbEdges, 0u);
}

TEST_P(RaceLitmusTest, UnfencedMessagePassingRaces)
{
    MpLitmus workload(false, Scope::Global, Scope::Global);
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_FALSE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    ASSERT_EQ(result.races.racesDetected, 1u);
    EXPECT_EQ(result.races.races.front().kind, RaceKind::Data);
    EXPECT_EQ(result.races.races.front().second.kind,
              AccessKind::Load);
}

TEST_P(RaceLitmusTest, SuppressedRaceDoesNotFailTheRun)
{
    SuppressedMpLitmus workload;
    RunResult result = runRaceChecked(workload, GetParam());
    EXPECT_TRUE(result.ok());
    ASSERT_TRUE(result.races.enabled);
    EXPECT_EQ(result.races.racesDetected, 1u);
    EXPECT_EQ(result.races.racesSuppressed, 1u);
    EXPECT_EQ(result.races.failureCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, RaceLitmusTest,
                         ::testing::ValuesIn(test::allConfigs()),
                         test::ConfigName{});

TEST(RaceScopeLitmus, MisScopedReleaseFlaggedUnderHrf)
{
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gh(), ProtocolConfig::dh()}) {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result = runRaceChecked(workload, proto);
        EXPECT_FALSE(result.ok()) << proto.shortName();
        ASSERT_EQ(result.races.racesDetected, 1u)
            << proto.shortName();
        EXPECT_EQ(result.races.races.front().kind, RaceKind::Scope)
            << proto.shortName();
    }
}

TEST(RaceScopeLitmus, MisScopedReleaseCleanUnderDrf)
{
    // The identical workload is DRF-correct when scopes are ignored:
    // GD/DD/DD+RO promote the local release to global.
    for (const ProtocolConfig &proto :
         {ProtocolConfig::gd(), ProtocolConfig::dd(),
          ProtocolConfig::ddro()}) {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result = runRaceChecked(workload, proto);
        EXPECT_TRUE(result.ok()) << proto.shortName();
        EXPECT_EQ(result.races.racesDetected, 0u)
            << proto.shortName();
    }
}

// ---------------------------------------------------------------------
// Bitwise identity and determinism
// ---------------------------------------------------------------------

TEST(RaceCheckIdentity, DisabledDetectorChangesNothing)
{
    for (const ProtocolConfig &proto : test::allConfigs()) {
        auto reference = makeScaled("FAM_G", 10);
        SystemConfig config;
        config.protocol = proto;
        System base_system(config);
        RunResult base = base_system.run(*reference);

        auto checked_wl = makeScaled("FAM_G", 10);
        config.checking.raceCheckEnabled = true;
        System checked_system(config);
        RunResult checked = checked_system.run(*checked_wl);

        EXPECT_TRUE(checked.ok()) << proto.shortName();
        EXPECT_EQ(base.cycles, checked.cycles) << proto.shortName();
        EXPECT_EQ(base.energyTotal, checked.energyTotal)
            << proto.shortName();
        EXPECT_EQ(base.trafficTotal, checked.trafficTotal)
            << proto.shortName();
        EXPECT_EQ(base.energy, checked.energy) << proto.shortName();
        EXPECT_EQ(base.traffic, checked.traffic) << proto.shortName();
    }
}

TEST(RaceCheckIdentity, ReportsAreDeterministic)
{
    // Two fresh Systems over the same racy workload must render the
    // same report — the property that makes --race-check --jobs=N
    // reports identical to serial runs.
    auto render = [] {
        MpLitmus workload(true, Scope::Local, Scope::Global);
        RunResult result =
            runRaceChecked(workload, ProtocolConfig::gh());
        return renderRaceReport(result.races);
    };
    std::string first = render();
    std::string second = render();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

} // namespace
