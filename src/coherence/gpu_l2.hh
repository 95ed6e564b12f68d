/**
 * @file
 * Shared L2 bank for the conventional GPU coherence protocol.
 *
 * The L2 is the coherence point: it is kept up to date by store-buffer
 * writethroughs and it executes all globally scoped atomics. It needs
 * only a valid bit per line (plus a dirty mask toward DRAM); there are
 * no sharer lists, directories, or protocol forwards.
 */

#ifndef COHERENCE_GPU_L2_HH
#define COHERENCE_GPU_L2_HH

#include <deque>
#include <vector>

#include "coherence/cache_timings.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_controller.hh"
#include "coherence/protocol.hh"
#include "coherence/snapshot.hh"
#include "mem/cache_array.hh"
#include "mem/functional_mem.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"

namespace nosync
{

/** One bank of the shared GPU L2. */
class GpuL2Bank : public L2Controller
{
  public:
    GpuL2Bank(const std::string &name, EventQueue &eq,
              stats::StatSet &stats, EnergyModel &energy, Mesh &mesh,
              NodeId node, FunctionalMem &memory,
              const CacheGeometry &geom, const CacheTimings &timings,
              trace::TraceSink *trace = nullptr);

    /** Data read request: replies with the full line. */
    void handleReadReq(Addr line_addr, NodeId requestor,
                       Callback<void(const LineData &)> reply);

    /**
     * Writethrough of the masked words; acks to the requestor once
     * merged (the release-side completion point for GPU coherence).
     */
    void handleWriteThrough(Addr line_addr, WordMask mask,
                            const LineData &data, NodeId requestor,
                            DoneCallback ack);

    /** Atomic executed at the L2 (globally scoped synchronization). */
    void handleAtomic(const SyncOp &op, NodeId requestor,
                      ValueCallback reply);

    /** Direct functional peek used by tests. */
    std::uint32_t peekWord(Addr addr) override;

    // Diagnostics -----------------------------------------------------
    /** Structured view of outstanding transaction state. */
    ControllerSnapshot snapshot() const override;

    /** Bank-local invariant sweep (see GpuL1Cache::checkInvariants). */
    std::vector<std::string>
    checkInvariants(bool quiesced) const override;

  private:
    /** Continuation run on a resident line. */
    using LineFn = Callback<void(CacheLine &)>;

    /** Run @p fn on the (possibly DRAM-fetched) line after timing. */
    void withLine(Addr line_addr, LineFn fn);

    /** Install a line fetched from memory, evicting as needed. */
    CacheLine &installLine(Addr line_addr);

    Mesh &_mesh;
    EnergyModel &_energy;
    FunctionalMem &_memory;
    CacheArray _array;
    CacheTimings _timings;

    /** Next tick the pipelined bank accepts an access. */
    Tick _bankFree = 0;

    /** Outstanding DRAM fetches, merged per line. */
    struct FetchEntry
    {
        std::vector<LineFn> waiters;
    };
    MshrTable<FetchEntry> _fetches;

    /**
     * Requests stalled on a full fetch MSHR, processed strictly in
     * arrival order: the protocols rely on per-source FIFO delivery,
     * so the bank must not reorder stalled requests.
     */
    std::deque<std::pair<Addr, LineFn>> _stalled;

    void withLineReady(Addr line_addr, LineFn fn, bool queued = false);
    void processStalled();

    stats::Handle<stats::Scalar> _reads;
    stats::Handle<stats::Scalar> _writethroughs;
    stats::Handle<stats::Scalar> _atomics;
    stats::Handle<stats::Scalar> _dramFetches;
    stats::Handle<stats::Scalar> _dramWritebacks;
};

} // namespace nosync

#endif // COHERENCE_GPU_L2_HH
