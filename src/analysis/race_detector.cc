#include "analysis/race_detector.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "runner/json_writer.hh"
#include "sim/logging.hh"
#include "sim/pdes.hh"

namespace nosync
{
namespace analysis
{

const char *
accessKindName(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Load: return "load";
      case AccessKind::Store: return "store";
      case AccessKind::AtomicLoad: return "atomic-load";
      case AccessKind::AtomicStore: return "atomic-store";
      case AccessKind::AtomicRmw: return "atomic-rmw";
    }
    return "?";
}

namespace
{

AccessKind
syncAccessKind(const SyncOp &op)
{
    switch (op.func) {
      case AtomicFunc::Load:
        return AccessKind::AtomicLoad;
      case AtomicFunc::Store:
        return AccessKind::AtomicStore;
      case AtomicFunc::FetchAdd:
      case AtomicFunc::Exchange:
      case AtomicFunc::CompareSwap:
        break;
    }
    return AccessKind::AtomicRmw;
}

bool
isWriteKind(AccessKind kind)
{
    return kind == AccessKind::Store ||
           kind == AccessKind::AtomicStore ||
           kind == AccessKind::AtomicRmw;
}

bool
isSyncKind(AccessKind kind)
{
    return kind != AccessKind::Load && kind != AccessKind::Store;
}

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

void
describeAccess(std::ostream &os, const RaceAccess &access)
{
    os << accessKindName(access.kind) << " by kernel "
       << access.kernel << " tb " << access.tb << " (cu " << access.cu
       << ") at tick " << access.tick;
}

} // namespace

// ---------------------------------------------------------------------
// Clock primitives
// ---------------------------------------------------------------------

RaceDetector::RaceDetector(const ProtocolConfig &config,
                           unsigned devices, unsigned cusPerDevice)
    : _config(config),
      _hrf(config.consistency == ConsistencyModel::Hrf),
      _cusPerDevice(cusPerDevice ? cusPerDevice : 1),
      _multiDevice(devices > 1)
{
}

void
RaceDetector::join(Clock &into, const Clock &from)
{
    if (from.size() > into.size())
        into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i] = std::max(into[i], from[i]);
}

std::uint32_t
RaceDetector::at(const Clock &clock, std::uint32_t slot)
{
    return slot < clock.size() ? clock[slot] : 0;
}

bool
RaceDetector::orderedReal(const Access &prev, const TbState &now) const
{
    return prev.clock <= at(now.real, prev.slot);
}

bool
RaceDetector::orderedDrf(const Access &prev, const TbState &now) const
{
    if (!_hrf)
        return orderedReal(prev, now);
    return prev.drfClock <= at(now.drf, prev.slot);
}

// ---------------------------------------------------------------------
// Thread-block lifecycle
// ---------------------------------------------------------------------

unsigned
RaceDetector::tbStarted(unsigned kernel, unsigned tb_global,
                        unsigned cu)
{
    unsigned slot = static_cast<unsigned>(_tbs.size());
    TbState state;
    state.kernel = kernel;
    state.tbGlobal = tb_global;
    state.cu = cu;
    state.device = cu / _cusPerDevice;
    // Inherit the device clock (everything before this kernel's
    // launch happens-before the TB), then open the TB's own epoch.
    state.real = _base;
    if (slot >= state.real.size())
        state.real.resize(slot + 1, 0);
    state.real[slot] = 1;
    if (_hrf) {
        state.drf = _baseDrf;
        if (slot >= state.drf.size())
            state.drf.resize(slot + 1, 0);
        state.drf[slot] = 1;
    }
    _tbs.push_back(std::move(state));
    return slot;
}

void
RaceDetector::tbFinished(unsigned slot)
{
    panic_if(slot >= _tbs.size(), "race slot out of range");
    join(_base, _tbs[slot].real);
    if (_hrf)
        join(_baseDrf, _tbs[slot].drf);
}

// ---------------------------------------------------------------------
// Race checks
// ---------------------------------------------------------------------

RaceDetector::Access
RaceDetector::makeAccess(const TbState &state, unsigned slot,
                         Tick tick, AccessKind kind) const
{
    Access access;
    access.slot = slot;
    access.clock = at(state.real, slot);
    access.drfClock = _hrf ? at(state.drf, slot) : access.clock;
    access.tick = tick;
    access.kind = kind;
    return access;
}

void
RaceDetector::report(Addr addr, const Access &prev, unsigned slot,
                     Tick tick, AccessKind kind)
{
    if (!_seen.emplace(addr, prev.slot, slot).second)
        return;
    ++_racesDetected;

    const TbState &first = _tbs[prev.slot];
    const TbState &second = _tbs[slot];

    RaceRecord record;
    record.addr = addr;
    record.kind = (_hrf && orderedDrf(prev, second)) ? RaceKind::Scope
                                                     : RaceKind::Data;
    record.first = {first.kernel, first.tbGlobal, first.cu, prev.tick,
                    prev.kind};
    record.second = {second.kernel, second.tbGlobal, second.cu, tick,
                     kind};
    for (const RaceSuppression &range : _suppressions) {
        if (addr >= range.base && addr < range.base + range.bytes) {
            record.suppressed = true;
            record.suppressReason = range.reason;
            break;
        }
    }
    if (_races.size() < _maxRecords)
        _races.push_back(std::move(record));
    else
        ++_recordsDropped;
}

RaceDetector::ShadowWord &
RaceDetector::shadowWord(Addr addr)
{
    const Addr line = lineAlign(addr);
    if (line != _lastLine) {
        if (!_shadow)
            _shadow.emplace();
        _lastShadow = &(*_shadow)[line];
        _lastLine = line;
    }
    const WordMask bit = wordMaskOf(addr);
    if (!(_lastShadow->touched & bit)) {
        _lastShadow->touched |= bit;
        ++_wordsTracked;
    }
    return _lastShadow->words[wordInLine(addr)];
}

void
RaceDetector::checkAndRecordRead(unsigned slot, Addr addr, Tick tick,
                                 AccessKind kind)
{
    ShadowWord &word = shadowWord(addr);
    const TbState &state = _tbs[slot];

    const Access &write = word.write;
    if (write.slot != kNoRaceSlot && write.slot != slot &&
        !(isSyncKind(write.kind) && isSyncKind(kind)) &&
        !orderedReal(write, state)) {
        report(addr, write, slot, tick, kind);
    }

    Access access = makeAccess(state, slot, tick, kind);
    for (Access &reader : word.readers) {
        if (reader.slot == slot) {
            reader = access;
            return;
        }
    }
    word.readers.push_back(access);
}

void
RaceDetector::checkAndRecordWrite(unsigned slot, Addr addr, Tick tick,
                                  AccessKind kind)
{
    ShadowWord &word = shadowWord(addr);
    const TbState &state = _tbs[slot];

    const Access &write = word.write;
    if (write.slot != kNoRaceSlot && write.slot != slot &&
        !(isSyncKind(write.kind) && isSyncKind(kind)) &&
        !orderedReal(write, state)) {
        report(addr, write, slot, tick, kind);
    }
    for (const Access &reader : word.readers) {
        if (reader.slot != slot &&
            !(isSyncKind(reader.kind) && isSyncKind(kind)) &&
            !orderedReal(reader, state)) {
            report(addr, reader, slot, tick, kind);
        }
    }

    word.write = makeAccess(state, slot, tick, kind);
    word.readers.clear();
}

bool
RaceDetector::stage(StagedOp op)
{
    if (_stages.empty())
        return false;
    const int d = PdesEngine::currentDomain();
    if (d < 0)
        return false;
    _stages[static_cast<unsigned>(d)].ops.push_back(std::move(op));
    return true;
}

void
RaceDetector::enableDomainStaging(unsigned domains)
{
    _stages = std::vector<StageLane>(domains);
}

void
RaceDetector::drainStaged()
{
    _stageBuf.clear();
    for (StageLane &lane : _stages) {
        for (StagedOp &op : lane.ops)
            _stageBuf.push_back(std::move(op));
        lane.ops.clear();
    }
    if (_stageBuf.empty())
        return;
    // Stable sort over the domain-major concatenation: same-tick ties
    // resolve by (domain, deposit order), independent of how domains
    // were packed onto workers.
    std::stable_sort(_stageBuf.begin(), _stageBuf.end(),
                     [](const StagedOp &a, const StagedOp &b) {
                         return a.tick < b.tick;
                     });
    for (const StagedOp &op : _stageBuf) {
        switch (op.kind) {
          case StagedOp::kRead:
            applyDataRead(op.slot, op.addr, op.tick);
            break;
          case StagedOp::kWrite:
            applyDataWrite(op.slot, op.addr, op.tick);
            break;
          default:
            applySyncPerformed(op.op, op.tick);
            break;
        }
    }
}

void
RaceDetector::dataRead(unsigned slot, Addr addr, Tick tick)
{
    panic_if(addr != wordAlign(addr), "race-checked load at unaligned "
             "address ", hexAddr(addr));
    if (stage(StagedOp{StagedOp::kRead, slot, addr, tick, SyncOp{}}))
        return;
    applyDataRead(slot, addr, tick);
}

void
RaceDetector::applyDataRead(unsigned slot, Addr addr, Tick tick)
{
    ++_dataAccesses;
    checkAndRecordRead(slot, addr, tick, AccessKind::Load);
}

void
RaceDetector::dataWrite(unsigned slot, Addr addr, Tick tick)
{
    panic_if(addr != wordAlign(addr), "race-checked store at unaligned "
             "address ", hexAddr(addr));
    if (stage(StagedOp{StagedOp::kWrite, slot, addr, tick, SyncOp{}}))
        return;
    applyDataWrite(slot, addr, tick);
}

void
RaceDetector::applyDataWrite(unsigned slot, Addr addr, Tick tick)
{
    ++_dataAccesses;
    checkAndRecordWrite(slot, addr, tick, AccessKind::Store);
}

// ---------------------------------------------------------------------
// Synchronization edges
// ---------------------------------------------------------------------

void
RaceDetector::syncPerformed(const SyncOp &op, Tick tick)
{
    panic_if(op.addr != wordAlign(op.addr), "atomic performed at "
             "unaligned address ", hexAddr(op.addr));
    if (stage(StagedOp{StagedOp::kSync, op.tb, op.addr, tick, op}))
        return;
    applySyncPerformed(op, tick);
}

void
RaceDetector::applySyncPerformed(const SyncOp &op, Tick tick)
{
    if (op.tb == kNoRaceSlot)
        return; // issued outside race checking (unit-test driving)
    panic_if(op.tb >= _tbs.size(), "sync op from unknown race slot");
    ++_syncPerforms;

    unsigned slot = op.tb;
    TbState &state = _tbs[slot];
    Scope scope = _config.effectiveScope(op.scope);

    SyncVar &var = _syncVars[op.addr];
    if (state.cu >= var.perCu.size())
        var.perCu.resize(state.cu + 1);
    if (_multiDevice && state.device >= var.perDevice.size())
        var.perDevice.resize(state.device + 1);

    // Scope hierarchy: on a single device, Device collapses into
    // Global (one device IS the whole machine); on multi-device
    // machines a Device-scope sync reaches its own device's per-device
    // publication but not the global one.
    bool reach_device = _multiDevice && scope != Scope::Local;
    bool reach_global = scope == Scope::Global ||
                        (!_multiDevice && scope == Scope::Device);

    // Acquire side first: the atomic observes every release that
    // performed before it in coherence order (these hooks sit at the
    // applyAtomic sites, so detector order is coherence order). A
    // local-scope acquire only reaches releases made visible through
    // this CU's L1; a device acquire additionally joins its device's
    // publication; a global acquire joins the global publication.
    if (op.isAcquire()) {
        if (!var.perCu[state.cu].empty()) {
            join(state.real, var.perCu[state.cu]);
            ++_hbEdges;
        }
        if (reach_device && !var.perDevice[state.device].empty()) {
            join(state.real, var.perDevice[state.device]);
            ++_hbEdges;
        }
        if (reach_global && !var.global.empty()) {
            join(state.real, var.global);
            ++_hbEdges;
        }
        if (_hrf && !var.drf.empty())
            join(state.drf, var.drf);
    }

    // The atomic is itself an access: a plain load/store racing a
    // sync access to the same word is a (mixed) data race; sync-sync
    // pairs are what synchronization is for and never race.
    AccessKind kind = syncAccessKind(op);
    if (isWriteKind(kind))
        checkAndRecordWrite(slot, op.addr, tick, kind);
    else
        checkAndRecordRead(slot, op.addr, tick, kind);

    // Release side: publish this TB's knowledge on the sync word. Any
    // release is visible to its own CU (shared L1); device-and-wider
    // releases reach the rest of the device; only global-scope
    // releases cross the inter-device link. The shadow clock treats
    // every release as global — divergence between the two is exactly
    // a scope race.
    if (op.isRelease()) {
        join(var.perCu[state.cu], state.real);
        if (reach_device)
            join(var.perDevice[state.device], state.real);
        if (reach_global)
            join(var.global, state.real);
        if (_hrf)
            join(var.drf, state.drf);
        // Open a fresh epoch: accesses after the release are not
        // covered by what was just published.
        state.real[slot] += 1;
        if (_hrf)
            state.drf[slot] += 1;
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

void
RaceDetector::setSuppressions(
    std::vector<RaceSuppression> suppressions)
{
    _suppressions = std::move(suppressions);
}

RaceReport
RaceDetector::finalize(const std::string &workload,
                       const std::string &config)
{
    std::stable_sort(_races.begin(), _races.end(),
                     [](const RaceRecord &a, const RaceRecord &b) {
                         if (a.second.tick != b.second.tick)
                             return a.second.tick < b.second.tick;
                         return a.addr < b.addr;
                     });

    RaceReport report;
    report.enabled = true;
    report.workload = workload;
    report.config = config;
    report.dataAccesses = _dataAccesses;
    report.syncPerforms = _syncPerforms;
    report.hbEdges = _hbEdges;
    report.wordsTracked = _wordsTracked;
    report.racesDetected = _racesDetected;
    report.recordsDropped = _recordsDropped;
    report.truncated = _recordsDropped != 0;
    report.races = std::move(_races);
    _races.clear();
    for (const RaceRecord &race : report.races) {
        if (race.suppressed)
            ++report.racesSuppressed;
    }
    return report;
}

std::string
describeRace(const RaceRecord &race)
{
    std::ostringstream os;
    os << (race.kind == RaceKind::Scope ? "scope race" : "data race")
       << " on " << hexAddr(race.addr) << ": ";
    describeAccess(os, race.first);
    os << " vs ";
    describeAccess(os, race.second);
    if (race.kind == RaceKind::Scope)
        os << " (ordered only by local-scope sync)";
    if (race.suppressed)
        os << " [suppressed: " << race.suppressReason << "]";
    return os.str();
}

std::string
renderRaceReport(const RaceReport &report)
{
    std::ostringstream os;
    os << "=== RACE REPORT: " << report.workload << " on "
       << report.config << " ===\n";
    os << "  " << report.racesDetected << " racing pair(s) ("
       << report.racesSuppressed << " suppressed) over "
       << report.dataAccesses << " data accesses, "
       << report.syncPerforms << " atomics, " << report.hbEdges
       << " HB edges, " << report.wordsTracked
       << " words tracked\n";
    std::size_t index = 0;
    for (const RaceRecord &race : report.races) {
        os << "  race " << ++index << ": "
           << (race.kind == RaceKind::Scope ? "scope race"
                                            : "data race")
           << " on " << hexAddr(race.addr);
        if (race.suppressed)
            os << " [suppressed: " << race.suppressReason << "]";
        os << "\n    first:  ";
        describeAccess(os, race.first);
        os << "\n    second: ";
        describeAccess(os, race.second);
        os << "\n";
    }
    if (report.recordsDropped != 0) {
        os << "  ... and " << report.recordsDropped
           << " more racing pair(s) past the record cap\n";
    }
    return os.str();
}

bool
writeRaceJson(const RaceReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;

    JsonWriter json(out);
    json.beginObject();
    json.key("schema_version").value(std::uint64_t{1});
    json.key("workload").value(report.workload);
    json.key("config").value(report.config);

    json.key("summary").beginObject();
    json.key("data_accesses").value(report.dataAccesses);
    json.key("sync_performs").value(report.syncPerforms);
    json.key("hb_edges").value(report.hbEdges);
    json.key("words_tracked").value(report.wordsTracked);
    json.key("races_detected").value(report.racesDetected);
    json.key("races_suppressed").value(report.racesSuppressed);
    json.key("records_dropped").value(report.recordsDropped);
    json.key("truncated").value(report.truncated);
    json.endObject();

    json.key("races").beginArray();
    for (const RaceRecord &race : report.races) {
        json.beginObject();
        json.key("kind").value(
            race.kind == RaceKind::Scope ? "scope" : "data");
        json.key("addr").value(hexAddr(race.addr));
        json.key("suppressed").value(race.suppressed);
        if (race.suppressed)
            json.key("suppress_reason").value(race.suppressReason);
        const RaceAccess *sides[2] = {&race.first, &race.second};
        const char *names[2] = {"first", "second"};
        for (int i = 0; i < 2; ++i) {
            json.key(names[i]).beginObject();
            json.key("kernel").value(sides[i]->kernel);
            json.key("tb").value(sides[i]->tb);
            json.key("cu").value(sides[i]->cu);
            json.key("tick").value(
                static_cast<std::uint64_t>(sides[i]->tick));
            json.key("access").value(accessKindName(sides[i]->kind));
            json.key("sync").value(sides[i]->sync());
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace analysis
} // namespace nosync
