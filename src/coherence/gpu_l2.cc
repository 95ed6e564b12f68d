#include "coherence/gpu_l2.hh"

#include "analysis/race_detector.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

GpuL2Bank::GpuL2Bank(const std::string &name, EventQueue &eq,
                     stats::StatSet &stats, EnergyModel &energy,
                     Mesh &mesh, NodeId node, FunctionalMem &memory,
                     const CacheGeometry &geom,
                     const CacheTimings &timings,
                     trace::TraceSink *trace)
    : L2Controller(name, eq, node, trace), _mesh(mesh),
      _energy(energy), _memory(memory),
      _array(geom.l2BankBytes, geom.l2Assoc), _timings(timings),
      _fetches(geom.l2MshrEntries),
      _reads(stats.registerScalar(name + ".reads",
                                  "read requests served")),
      _writethroughs(stats.registerScalar(
          name + ".writethroughs", "writethrough messages merged")),
      _atomics(stats.registerScalar(name + ".atomics",
                                    "atomics executed at this bank")),
      _dramFetches(stats.registerScalar(name + ".dram_fetches",
                                        "line fetches from memory")),
      _dramWritebacks(
          stats.registerScalar(name + ".dram_writebacks",
                               "dirty line writebacks to memory"))
{
}

CacheLine &
GpuL2Bank::installLine(Addr line_addr)
{
    CacheLine *victim = _array.findVictim(line_addr);
    if (victim->valid && victim->dirty) {
        // Dirty words go back to the functional backing store. DRAM
        // bandwidth is not a bottleneck in any studied workload, so
        // the writeback is not placed on the eviction's critical path.
        _memory.writeLineMasked(victim->addr, victim->data,
                                victim->dirty);
        ++_dramWritebacks;
    }
    _array.install(*victim, line_addr);
    victim->data = _memory.readLine(line_addr);
    return *victim;
}

void
GpuL2Bank::withLine(Addr line_addr, LineFn fn)
{
    line_addr = lineAlign(line_addr);
    _energy.l2Access();
    withLineReady(line_addr, std::move(fn));
}

void
GpuL2Bank::withLineReady(Addr line_addr, LineFn fn, bool queued)
{
    // Pipelined bank: one new access per l2CycleTime cycles.
    Tick start = std::max(curTick(), _bankFree);
    _bankFree = start + _timings.l2CycleTime;
    Cycles queue_delay = start - curTick();

    if (CacheLine *line = _array.lookup(line_addr)) {
        _array.touch(*line);
        // Re-resolve at fire time: a concurrent fetch may evict and
        // repurpose this frame during the access latency window.
        scheduleIn(queue_delay + _timings.l2Access,
                   [this, line_addr, fn = std::move(fn)]() mutable {
                       if (CacheLine *line = _array.lookup(line_addr)) {
                           fn(*line);
                           return;
                       }
                       withLineReady(line_addr, std::move(fn));
                   });
        return;
    }

    if (FetchEntry *entry = _fetches.find(line_addr)) {
        entry->waiters.push_back(std::move(fn));
        return;
    }

    if ((!queued && !_stalled.empty()) || _fetches.full()) {
        if (queued) {
            // Re-stall at the head to preserve arrival order.
            _stalled.emplace_front(line_addr, std::move(fn));
            return;
        }
        // All fetch MSHRs busy: stall in strict arrival order (the
        // protocols rely on per-source FIFO processing).
        _stalled.emplace_back(line_addr, std::move(fn));
        return;
    }

    FetchEntry &entry = _fetches.allocate(line_addr);
    entry.waiters.push_back(std::move(fn));
    ++_dramFetches;
    scheduleIn(_timings.l2Access + _timings.dramLatency,
               [this, line_addr] {
                   CacheLine &line = installLine(line_addr);
                   FetchEntry *entry = _fetches.find(line_addr);
                   panic_if(!entry, "L2 fetch entry vanished");
                   auto waiters = std::move(entry->waiters);
                   _fetches.deallocate(line_addr);
                   for (auto &waiter : waiters)
                       waiter(line);
                   processStalled();
               });
}

void
GpuL2Bank::processStalled()
{
    while (!_stalled.empty() && !_fetches.full()) {
        auto [line_addr, fn] = std::move(_stalled.front());
        _stalled.pop_front();
        withLineReady(line_addr, std::move(fn), true);
    }
}

void
GpuL2Bank::handleReadReq(Addr line_addr, NodeId requestor,
                         Callback<void(const LineData &)> reply)
{
    ++_reads;
    withLine(line_addr, [this, line_addr, requestor,
                         reply = std::move(reply)](
                            CacheLine &line) mutable {
        if (_trace) {
            _trace->record(curTick(), trace::Phase::L2ReadServe, _node,
                           line_addr, 0,
                           static_cast<std::uint16_t>(requestor));
        }
        LineData data = line.data;
        _mesh.send(_node, requestor, kLineFlits, TrafficClass::Read,
                   [reply = std::move(reply), data] { reply(data); });
    });
}

void
GpuL2Bank::handleWriteThrough(Addr line_addr, WordMask mask,
                              const LineData &data, NodeId requestor,
                              DoneCallback ack)
{
    ++_writethroughs;
    withLine(line_addr,
             [this, line_addr, mask, data, requestor,
              ack = std::move(ack)](CacheLine &line) mutable {
                 if (_trace) {
                     _trace->record(curTick(),
                                    trace::Phase::L2WriteThrough,
                                    _node, line_addr, 0, mask);
                 }
                 for (unsigned w = 0; w < kWordsPerLine; ++w) {
                     if (mask & (1u << w))
                         line.data[w] = data[w];
                 }
                 line.dirty |= mask;
                 _mesh.send(_node, requestor, kControlFlits,
                            TrafficClass::WriteBack, std::move(ack));
             });
}

void
GpuL2Bank::handleAtomic(const SyncOp &op, NodeId requestor,
                        ValueCallback reply)
{
    ++_atomics;
    _energy.atomicAlu();
    withLine(op.addr, [this, op, requestor,
                       reply = std::move(reply)](CacheLine &line) mutable {
        if (_trace) {
            _trace->record(curTick(), trace::Phase::L2Atomic, _node,
                           op.addr, 0,
                           static_cast<std::uint16_t>(requestor));
        }
        unsigned w = wordInLine(op.addr);
        if (_races)
            _races->syncPerformed(op, curTick());
        AtomicResult res = applyAtomic(op, line.data[w]);
        if (res.stored) {
            line.data[w] = res.newValue;
            line.dirty |= static_cast<WordMask>(1u << w);
        }
        unsigned flits = flitsForWords(1);
        _mesh.send(_node, requestor, flits, TrafficClass::Atomic,
                   [reply = std::move(reply), v = res.returned] {
                       reply(v);
                   });
    });
}

std::uint32_t
GpuL2Bank::peekWord(Addr addr)
{
    if (CacheLine *line = _array.lookup(lineAlign(addr)))
        return line->data[wordInLine(addr)];
    return _memory.readWord(addr);
}

ControllerSnapshot
GpuL2Bank::snapshot() const
{
    ControllerSnapshot snap;
    snap.name = name();
    snap.gauge("fetches", _fetches.size());
    snap.gauge("stalled", _stalled.size());
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        std::ostringstream os;
        os << "fetch line 0x" << std::hex << line_addr << std::dec
           << " waiters=" << entry.waiters.size();
        snap.detail.push_back(os.str());
    });
    return snap;
}

std::vector<std::string>
GpuL2Bank::checkInvariants(bool quiesced) const
{
    std::vector<std::string> out;
    _fetches.forEach([&](Addr line_addr, const FetchEntry &entry) {
        if (entry.waiters.empty()) {
            std::ostringstream os;
            os << name() << ": DRAM fetch of line 0x" << std::hex
               << line_addr << " with no waiters";
            out.push_back(os.str());
        }
    });
    if (quiesced) {
        ControllerSnapshot snap = snapshot();
        if (!snap.quiescent()) {
            out.push_back(name() + ": state leaked at quiesce: " +
                          snap.summary());
        }
    }
    return out;
}

} // namespace nosync
