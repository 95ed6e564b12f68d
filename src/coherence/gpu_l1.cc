#include "coherence/gpu_l1.hh"

#include <bit>

#include "analysis/race_detector.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

GpuL1Cache::GpuL1Cache(const std::string &name, EventQueue &eq,
                       stats::StatSet &stats, EnergyModel &energy,
                       Mesh &mesh, NodeId node,
                       const ProtocolConfig &config,
                       std::vector<GpuL2Bank *> banks,
                       const CacheGeometry &geom,
                       const CacheTimings &timings,
                       trace::TraceSink *trace)
    : L1Controller(name, eq, stats, energy, node, config, trace),
      _mesh(mesh), _banks(std::move(banks)),
      _array(geom.l1Bytes, geom.l1Assoc),
      _dirtyFrames((_array.numFrames() + 63) / 64, 0),
      _sb(geom.storeBufferEntries), _timings(timings),
      _mshr(geom.l1MshrEntries)
{
    panic_if(_config.protocol != CoherenceProtocol::Gpu,
             "GpuL1Cache built with a non-GPU protocol config");
}

bool
GpuL1Cache::bufferedValue(Addr addr, std::uint32_t &value) const
{
    if (_sb.contains(addr)) {
        value = _sb.value(addr);
        return true;
    }
    auto it = _pendingWt.find(wordAlign(addr));
    if (it != _pendingWt.end()) {
        value = it->second.value;
        return true;
    }
    return false;
}

GpuL2Bank &
GpuL1Cache::homeBank(Addr addr)
{
    std::size_t bank = (lineAlign(addr) / kLineBytes) % _banks.size();
    return *_banks[bank];
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

void
GpuL1Cache::load(Addr addr, ValueCallback cb)
{
    // Store-buffer forwarding: the SB holds the CU's freshest
    // values.
    if (_sb.contains(addr)) {
        ++_stats.loadHits;
        _energy.l1Access();
        scheduleIn(_timings.l1Hit, [cb = std::move(cb),
                                    v = _sb.value(addr)] { cb(v); });
        return;
    }

    unsigned w = wordInLine(addr);
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        if (line->valid && line->wstate[w] == WordState::Valid) {
            ++_stats.loadHits;
            _energy.l1Access();
            _array.touch(*line);
            scheduleIn(_timings.l1Hit, [cb = std::move(cb),
                                        v = line->data[w]] { cb(v); });
            return;
        }
    }

    // In-flight writethrough: the word left the SB (and possibly the
    // cache, on eviction) but has not merged at the L2 yet. Fills
    // never install over such words, so any valid frame copy checked
    // above is at least as fresh.
    auto pending = _pendingWt.find(wordAlign(addr));
    if (pending != _pendingWt.end()) {
        ++_stats.loadHits;
        _energy.l1Access();
        scheduleIn(_timings.l1Hit,
                   [cb = std::move(cb),
                    v = pending->second.value] { cb(v); });
        return;
    }

    ++_stats.loadMisses;
    _energy.l1TagAccess();
    Addr line_addr = lineAlign(addr);
    ReadEntry *entry = _mshr.find(line_addr);
    if (!entry)
        entry = &_mshr.allocate(line_addr);
    entry->targets.push_back({addr, std::move(cb), _curEpoch});
    if (!entry->requestOutstanding) {
        entry->requestOutstanding = true;
        issueRead(line_addr);
    }
}

void
GpuL1Cache::issueRead(Addr line_addr)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1MissIssue, _node,
                       line_addr);
    }
    GpuL2Bank &bank = homeBank(line_addr);
    std::uint64_t sent_epoch = _curEpoch;
    // Read requests are idempotent: a duplicated delivery only
    // produces a second fill, which onFill drops as spurious. The
    // flag lets the fault injector exercise exactly that path.
    _mesh.send(_node, bank.node(), kControlFlits, TrafficClass::Read,
               [this, line_addr, sent_epoch, &bank] {
                   bank.handleReadReq(
                       line_addr, _node,
                       [this, line_addr,
                        sent_epoch](const LineData &data) {
                           onFill(line_addr, data, sent_epoch);
                       });
               },
               /*idempotent=*/true);
}

CacheLine &
GpuL1Cache::installFill(Addr line_addr, const LineData &data)
{
    // The line may still be resident (HRF keeps locally dirty words
    // across acquires): merge the fill into the existing frame, never
    // overwriting this CU's own newer dirty words.
    if (CacheLine *line = _array.lookup(line_addr)) {
        refreshLine(*line);
        if (line->valid) {
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                WordMask bit = static_cast<WordMask>(1u << w);
                if (line->dirty & bit)
                    continue;
                // Buffered stores and in-flight writethroughs are
                // newer than the fill: leave those words invalid so
                // later loads refetch (FIFO makes the refetch fresh).
                Addr waddr = line_addr + w * kWordBytes;
                std::uint32_t fresh;
                if (bufferedValue(waddr, fresh)) {
                    line->wstate[w] = WordState::Invalid;
                    continue;
                }
                line->data[w] = data[w];
                line->wstate[w] = WordState::Valid;
            }
            line->epoch = _curEpoch;
            _array.touch(*line);
            _energy.l1Access();
            return *line;
        }
    }

    CacheLine *victim = _array.findVictim(line_addr);
    if (victim->valid) {
        ++_stats.evictions;
        // Under HRF, locally performed atomics leave dirty words that
        // exist only in this L1; they must be written through before
        // the frame is reused. Words also buffered in the SB are
        // skipped: the SB drain will write them through.
        WordMask to_flush = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            WordMask bit = static_cast<WordMask>(1u << w);
            if ((victim->dirty & bit) &&
                !_sb.contains(victim->addr + w * kWordBytes)) {
                to_flush |= bit;
            }
        }
        if (to_flush != 0)
            sendWriteThrough(victim->addr, to_flush, victim->data);
    }
    _array.install(*victim, line_addr);
    victim->data = data;
    victim->wstate.fill(WordState::Valid);
    victim->epoch = _curEpoch;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        // Buffered stores and in-flight writethroughs are newer than
        // the fill: leave those words invalid.
        Addr waddr = line_addr + w * kWordBytes;
        std::uint32_t fresh;
        if (bufferedValue(waddr, fresh))
            victim->wstate[w] = WordState::Invalid;
    }
    _energy.l1Access();
    return *victim;
}

void
GpuL1Cache::onFill(Addr line_addr, const LineData &data,
                   std::uint64_t sent_epoch)
{
    ReadEntry *entry = _mshr.find(line_addr);
    if (!entry) {
        // Spurious fill: a duplicated read request (fault injection)
        // produced a second reply after the first retired the entry.
        return;
    }
    entry->requestOutstanding = false;

    if (sent_epoch == _curEpoch) {
        // No acquire intervened: install and satisfy everyone.
        CacheLine &line = installFill(line_addr, data);
        // Snapshot before running callbacks: a resumed coroutine may
        // evict or rewrite the frame.
        LineData snapshot = line.data;
        auto targets = std::move(entry->targets);
        auto atomics = std::move(entry->atomicTargets);
        _mshr.deallocate(line_addr);
        for (auto &target : targets)
            target.cb(snapshot[wordInLine(target.addr)]);
        for (auto &[op, cb] : atomics)
            performLocalAtomic(op, std::move(cb));
        return;
    }

    // An acquire intervened: the data may only satisfy loads issued
    // at or before the request's epoch; newer loads re-fetch so they
    // cannot observe values older than their acquire. Collect first:
    // the callbacks may push new loads into this entry.
    std::vector<ReadTarget> ready;
    auto &targets = entry->targets;
    for (auto it = targets.begin(); it != targets.end();) {
        if (it->epoch <= sent_epoch) {
            ready.push_back(std::move(*it));
            it = targets.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &target : ready)
        target.cb(data[wordInLine(target.addr)]);

    entry = _mshr.find(line_addr);
    if (!entry)
        return;
    if (entry->targets.empty() && entry->atomicTargets.empty()) {
        _mshr.deallocate(line_addr);
        return;
    }
    if (!entry->requestOutstanding) {
        entry->requestOutstanding = true;
        issueRead(line_addr);
    }
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

void
GpuL1Cache::store(Addr addr, std::uint32_t value, DoneCallback cb)
{
    if (_config.consistency == ConsistencyModel::Hrf) {
        // GPU-H keeps a dirty bit per word in the L1 (the paper's 3%
        // overhead): stores write-allocate into the cache and retire
        // immediately; a global release scans and flushes dirty
        // words, so the store buffer never backs up.
        ++_stats.storeHits;
        _energy.l1Access();
        CacheLine *line = _array.lookup(addr);
        if (line) {
            refreshLine(*line);
            if (!line->valid)
                line = nullptr;
        }
        if (!line) {
            // Allocate without fetching: only this word becomes
            // valid (partial-block write).
            CacheLine *victim = _array.findVictim(addr);
            if (victim->valid) {
                ++_stats.evictions;
                WordMask to_flush = 0;
                for (unsigned w = 0; w < kWordsPerLine; ++w) {
                    WordMask bit = static_cast<WordMask>(1u << w);
                    if ((victim->dirty & bit) &&
                        !_sb.contains(victim->addr +
                                      w * kWordBytes)) {
                        to_flush |= bit;
                    }
                }
                if (to_flush != 0) {
                    sendWriteThrough(victim->addr, to_flush,
                                     victim->data);
                }
            }
            _array.install(*victim, lineAlign(addr));
            victim->epoch = _curEpoch;
            line = victim;
        }
        unsigned w = wordInLine(addr);
        line->data[w] = value;
        line->wstate[w] = WordState::Valid;
        markDirty(*line, static_cast<WordMask>(1u << w));
        _array.touch(*line);
        scheduleIn(_timings.l1Hit, std::move(cb));
        return;
    }

    if (!_stalledStores.empty() || (_sb.full() && !_sb.contains(addr))) {
        _stalledStores.push_back({addr, value, std::move(cb)});
        if (!_overflowDrainActive) {
            _overflowDrainActive = true;
            ++_stats.sbOverflowDrains;
            startDrain([this] {
                _overflowDrainActive = false;
                serviceStallQueue();
            });
        }
        return;
    }
    acceptStore(addr, value, std::move(cb));
}

void
GpuL1Cache::acceptStore(Addr addr, std::uint32_t value, DoneCallback cb)
{
    _energy.l1Access();
    ++_stats.storeBuffered;
    if (_sb.insert(addr, value))
        ++_stats.storeCoalesced;

    // Keep the local copy coherent for same-CU readers.
    if (CacheLine *line = _array.lookup(addr)) {
        refreshLine(*line);
        if (line->valid) {
            unsigned w = wordInLine(addr);
            line->data[w] = value;
            line->wstate[w] = WordState::Valid;
            _array.touch(*line);
        }
    }
    scheduleIn(_timings.l1Hit, std::move(cb));
}

void
GpuL1Cache::serviceStallQueue()
{
    while (!_stalledStores.empty() && !_sb.full()) {
        StalledStore st = std::move(_stalledStores.front());
        _stalledStores.pop_front();
        acceptStore(st.addr, st.value, std::move(st.cb));
    }
}

// ---------------------------------------------------------------------
// Drains (release-side visibility)
// ---------------------------------------------------------------------

void
GpuL1Cache::sendWriteThrough(Addr line_addr, WordMask mask,
                             const LineData &data)
{
    if (_trace) {
        _trace->record(curTick(), trace::Phase::L1WriteThrough, _node,
                       line_addr, 0, mask);
    }
    ++_pendingWtAcks;
    // Keep the in-flight values forwardable until the L2 merged them.
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (!(mask & (1u << w)))
            continue;
        auto [it, inserted] = _pendingWt.try_emplace(
            line_addr + w * kWordBytes, PendingWt{data[w], 0});
        it->second.value = data[w];
        ++it->second.count;
    }
    GpuL2Bank &bank = homeBank(line_addr);
    unsigned flits = flitsForWords(popcount(mask));
    _mesh.send(_node, bank.node(), flits, TrafficClass::WriteBack,
               [this, &bank, line_addr, mask, data] {
                   bank.handleWriteThrough(
                       line_addr, mask, data, _node,
                       [this, line_addr, mask] {
                           for (unsigned w = 0; w < kWordsPerLine;
                                ++w) {
                               if (!(mask & (1u << w)))
                                   continue;
                               auto it = _pendingWt.find(
                                   line_addr + w * kWordBytes);
                               panic_if(it == _pendingWt.end(),
                                        "writethrough ack without "
                                        "pending entry");
                               if (--it->second.count == 0)
                                   _pendingWt.erase(it);
                           }
                           --_pendingWtAcks;
                           maybeFinishDrains();
                       });
               });
}

void
GpuL1Cache::markDirty(CacheLine &line, WordMask bits)
{
    if (line.dirty == 0) {
        std::size_t index = _array.frameIndex(line);
        _dirtyFrames[index / 64] |= std::uint64_t{1} << (index % 64);
    }
    line.dirty |= bits;
}

std::vector<StoreBuffer::DrainGroup>
GpuL1Cache::collectDirtyWords()
{
    // Same groups, in the same order, as a walk over every valid
    // frame: the index visits candidate frames in array order, each
    // once, and skips the ones no longer dirty.
    std::vector<StoreBuffer::DrainGroup> groups;
    for (std::size_t chunk = 0; chunk < _dirtyFrames.size(); ++chunk) {
        std::uint64_t bits = std::exchange(_dirtyFrames[chunk], 0);
        for (; bits != 0; bits &= bits - 1) {
            CacheLine &line = _array.frame(
                chunk * 64 +
                static_cast<std::size_t>(std::countr_zero(bits)));
            if (!line.valid || line.dirty == 0)
                continue;
            StoreBuffer::DrainGroup group{line.addr, 0, LineData{}};
            for (unsigned w = 0; w < kWordsPerLine; ++w) {
                WordMask bit = static_cast<WordMask>(1u << w);
                if (!(line.dirty & bit))
                    continue;
                // Words still buffered in the SB are drained from
                // there.
                if (_sb.contains(line.addr + w * kWordBytes))
                    continue;
                group.mask |= bit;
                group.data[w] = line.data[w];
            }
            line.dirty = 0;
            if (group.mask != 0)
                groups.push_back(group);
        }
    }
    return groups;
}

void
GpuL1Cache::startDrain(DoneCallback cb)
{
    // Collect L1-dirty words first: words still buffered in the SB
    // are skipped there (the SB drain below writes them through) and
    // the dirty bits clear either way, so nothing flushes twice.
    auto groups = collectDirtyWords();
    auto sb_groups = _sb.drain();
    groups.insert(groups.end(), sb_groups.begin(), sb_groups.end());
    for (const auto &group : groups)
        sendWriteThrough(group.lineAddr, group.mask, group.data);
    _drainWaiters.push_back(std::move(cb));
    maybeFinishDrains();
}

void
GpuL1Cache::maybeFinishDrains()
{
    if (_pendingWtAcks != 0 || _drainWaiters.empty())
        return;
    auto waiters = std::move(_drainWaiters);
    _drainWaiters.clear();
    for (auto &waiter : waiters)
        waiter();
}

void
GpuL1Cache::drainWrites(Scope scope, DoneCallback cb)
{
    if (_config.effectiveScope(scope) == Scope::Local) {
        // Locally scoped release: nothing to make globally visible.
        scheduleIn(0, std::move(cb));
        return;
    }
    ++_stats.releaseDrains;
    startDrain(std::move(cb));
}

// ---------------------------------------------------------------------
// Invalidations (acquire-side)
// ---------------------------------------------------------------------

void
GpuL1Cache::flashInvalidate()
{
    // Flash invalidation is a gang-clear in hardware; the simulator
    // implements it lazily by bumping the acquire epoch and sweeping
    // each line on its next touch (refreshLine).
    ++_stats.acquireInvalidations;
    _energy.l1TagAccess();
    ++_curEpoch;
}

void
GpuL1Cache::refreshLine(CacheLine &line)
{
    if (line.epoch == _curEpoch)
        return;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        WordMask bit = static_cast<WordMask>(1u << w);
        if (line.wstate[w] != WordState::Valid)
            continue;
        // HRF keeps this CU's own partial writes: racing writes from
        // other scopes would be heterogeneous races anyway.
        if (_config.consistency == ConsistencyModel::Hrf &&
            (line.dirty & bit)) {
            ++_stats.wordsPreserved;
            continue;
        }
        line.wstate[w] = WordState::Invalid;
        ++_stats.wordsInvalidated;
    }
    line.epoch = _curEpoch;
    if (line.maskInState(WordState::Valid) == 0 && line.dirty == 0)
        line.valid = false;
}

// ---------------------------------------------------------------------
// Synchronization accesses
// ---------------------------------------------------------------------

void
GpuL1Cache::sync(const SyncOp &op, ValueCallback cb)
{
    Scope scope = _config.effectiveScope(op.scope);
    auto perform = [this, op, scope, cb = std::move(cb)]() mutable {
        auto finish = [this, op, scope, cb = std::move(cb)](
                          std::uint32_t value) mutable {
            finishSync(op, scope, value, std::move(cb));
        };
        if (scope == Scope::Local)
            performLocalAtomic(op, std::move(finish));
        else
            performRemoteAtomic(op, std::move(finish));
    };

    // Device- and machine-scoped releases both make prior writes
    // visible beyond this CU's L1, so both drain.
    if (op.isRelease() && scope != Scope::Local) {
        ++_stats.releaseDrains;
        startDrain(std::move(perform));
    } else {
        perform();
    }
}

void
GpuL1Cache::finishSync(const SyncOp &op, Scope scope,
                       std::uint32_t value, ValueCallback cb)
{
    if (op.isAcquire() && scope != Scope::Local)
        flashInvalidate();
    cb(value);
}

void
GpuL1Cache::performRemoteAtomic(const SyncOp &op, ValueCallback cb)
{
    ++_stats.syncMisses;
    _energy.atomicAlu();
    GpuL2Bank &bank = homeBank(op.addr);
    unsigned flits = flitsForWords(1);
    _mesh.send(_node, bank.node(), flits, TrafficClass::Atomic,
               [this, &bank, op, cb = std::move(cb)]() mutable {
                   bank.handleAtomic(op, _node, std::move(cb));
               });
}

void
GpuL1Cache::performLocalAtomic(const SyncOp &op, ValueCallback cb)
{
    CacheLine *line = _array.lookup(op.addr);
    if (line)
        refreshLine(*line);
    unsigned w = wordInLine(op.addr);
    bool present = line && line->valid &&
                   (line->wstate[w] != WordState::Invalid ||
                    (line->dirty & (1u << w)));
    if (present) {
        ++_stats.syncHits;
        applyLocalAtomic(*line, op, std::move(cb));
        return;
    }

    // Fetch the line, then perform at L1.
    ++_stats.syncMisses;
    Addr line_addr = lineAlign(op.addr);
    ReadEntry *entry = _mshr.find(line_addr);
    if (!entry)
        entry = &_mshr.allocate(line_addr);
    entry->atomicTargets.emplace_back(op, std::move(cb));
    if (!entry->requestOutstanding) {
        entry->requestOutstanding = true;
        issueRead(line_addr);
    }
}

void
GpuL1Cache::applyLocalAtomic(CacheLine &line, const SyncOp &op,
                             ValueCallback cb)
{
    _energy.l1Access();
    _energy.atomicAlu();
    unsigned w = wordInLine(op.addr);
    // Freshness order: SB, then the frame copy, then any in-flight
    // writethrough (only relevant when the frame lacks the word).
    std::uint32_t old_val;
    if (_sb.contains(op.addr)) {
        old_val = _sb.value(op.addr);
    } else if (line.wstate[w] != WordState::Invalid ||
               (line.dirty & (1u << w))) {
        old_val = line.data[w];
    } else if (!bufferedValue(op.addr, old_val)) {
        old_val = line.data[w];
    }
    if (_races)
        _races->syncPerformed(op, curTick());
    AtomicResult res = applyAtomic(op, old_val);
    line.data[w] = res.newValue;
    line.wstate[w] = WordState::Valid;
    markDirty(line, static_cast<WordMask>(1u << w));
    _sb.erase(op.addr);
    _array.touch(line);
    scheduleIn(_timings.l1Atomic,
               [cb = std::move(cb), v = res.returned] { cb(v); });
}

// ---------------------------------------------------------------------
// Kernel boundaries
// ---------------------------------------------------------------------

void
GpuL1Cache::kernelBegin()
{
    flashInvalidate();
}

void
GpuL1Cache::kernelEnd(DoneCallback cb)
{
    ++_stats.releaseDrains;
    startDrain(std::move(cb));
}

// ---------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------

std::vector<std::pair<Addr, WordMask>>
GpuL1Cache::dirtyLines() const
{
    std::vector<std::pair<Addr, WordMask>> out;
    _array.forEachValid([&](const CacheLine &line) {
        if (line.dirty != 0)
            out.emplace_back(line.addr, line.dirty);
    });
    return out;
}

bool
GpuL1Cache::wordValid(Addr addr) const
{
    const CacheLine *line = _array.lookup(addr);
    if (!line)
        return false;
    unsigned w = wordInLine(addr);
    if (line->wstate[w] != WordState::Valid)
        return false;
    // Interpret lazy flash invalidation without mutating.
    if (line->epoch == _curEpoch)
        return true;
    return _config.consistency == ConsistencyModel::Hrf &&
           (line->dirty & (1u << w));
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

ControllerSnapshot
GpuL1Cache::snapshot() const
{
    ControllerSnapshot snap;
    snap.name = name();
    snap.gauge("mshr", _mshr.size());
    snap.gauge("sb", _sb.size());
    snap.gauge("wt_acks", _pendingWtAcks);
    snap.gauge("wt_words", _pendingWt.size());
    snap.gauge("stalled_stores", _stalledStores.size());
    snap.gauge("drain_waiters", _drainWaiters.size());
    _mshr.forEach([&](Addr line_addr, const ReadEntry &entry) {
        std::ostringstream os;
        os << "line 0x" << std::hex << line_addr << std::dec
           << " outstanding=" << entry.requestOutstanding
           << " targets=" << entry.targets.size()
           << " atomics=" << entry.atomicTargets.size();
        snap.detail.push_back(os.str());
    });
    return snap;
}

std::vector<std::string>
GpuL1Cache::checkInvariants(bool quiesced) const
{
    std::vector<std::string> out;
    auto fail = [&](const std::string &msg) {
        out.push_back(name() + ": " + msg);
    };

    _mshr.forEach([&](Addr line_addr, const ReadEntry &entry) {
        if (!entry.requestOutstanding && entry.targets.empty() &&
            entry.atomicTargets.empty()) {
            std::ostringstream os;
            os << "leaked MSHR entry for line 0x" << std::hex
               << line_addr << " (no request, no waiters)";
            fail(os.str());
        }
    });
    _array.forEachValid([&](const CacheLine &line) {
        std::size_t index = _array.frameIndex(line);
        bool indexed = (_dirtyFrames[index / 64] >> (index % 64)) & 1;
        if (line.dirty != 0 && !indexed) {
            std::ostringstream os;
            os << "dirty line 0x" << std::hex << line.addr
               << " missing from the dirty-frame index";
            fail(os.str());
        }
    });
    for (const auto &kv : _pendingWt) {
        if (kv.second.count == 0) {
            std::ostringstream os;
            os << "pending-writethrough entry for word 0x" << std::hex
               << kv.first << " with zero refcount";
            fail(os.str());
        }
    }

    if (quiesced) {
        ControllerSnapshot snap = snapshot();
        if (!snap.quiescent())
            fail("state leaked at quiesce: " + snap.summary());
    }
    return out;
}

} // namespace nosync
