/**
 * @file
 * DeNovo L1 cache controller (DD, DD+RO, and DH configurations).
 *
 * Word-granularity Invalid/Valid/Registered states with no transient
 * states: an in-flight transaction is simply a word whose MSHR entry
 * records what is pending. Writes and synchronization accesses obtain
 * ownership (registration); acquires self-invalidate only Valid words,
 * so owned data and synchronization variables are reused across
 * synchronization boundaries — the paper's central mechanism.
 *
 * Synchronization follows DeNovoSync0: sync reads and writes both
 * register; racy registrations serialize at the registry and form a
 * distributed queue via forwards, with same-CU requests coalescing in
 * the MSHR and serviced before any queued remote request.
 */

#ifndef COHERENCE_DENOVO_L1_HH
#define COHERENCE_DENOVO_L1_HH

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/line_table.hh"

#include "coherence/cache_timings.hh"
#include "coherence/denovo_l2.hh"
#include "coherence/l1_controller.hh"
#include "coherence/region_map.hh"
#include "coherence/snapshot.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "mem/store_buffer.hh"

namespace nosync
{

/** DeNovo L1 data cache controller. */
class DenovoL1Cache : public L1Controller
{
  public:
    DenovoL1Cache(const std::string &name, EventQueue &eq,
                  stats::StatSet &stats, EnergyModel &energy,
                  Mesh &mesh, NodeId node, const ProtocolConfig &config,
                  std::vector<DenovoL2Bank *> banks,
                  const RegionMap &regions, const CacheGeometry &geom,
                  const CacheTimings &timings,
                  trace::TraceSink *trace = nullptr);

    /** Wire the peer L1s (for direct owner-to-requestor transfers). */
    void setPeers(std::vector<DenovoL1Cache *> peers)
    {
        _peers = std::move(peers);
    }

    // CU-facing interface --------------------------------------------
    void load(Addr addr, ValueCallback cb) override;
    void store(Addr addr, std::uint32_t value, DoneCallback cb)
        override;
    void sync(const SyncOp &op, ValueCallback cb) override;
    void kernelBegin() override;
    void kernelEnd(DoneCallback cb) override;
    void drainWrites(Scope scope, DoneCallback cb) override;

    // Network-facing handlers (invoked at arrival via mesh closures) -
    /**
     * Registry forwarded a data read: we own the words. @p req_epoch
     * is the requestor's opaque freshness token, echoed back with the
     * data.
     */
    void handleReadFwd(Addr line_addr, WordMask mask, NodeId requestor,
                       std::uint64_t req_epoch);

    /** Registry transferred our ownership to @p new_owner. */
    void handleTransferReq(Addr line_addr, WordMask mask,
                           NodeId new_owner, bool is_sync, bool to_l2);

    /** Ownership (and value, for sync) arriving from an old owner. */
    void handleTransferResp(Addr line_addr, WordMask mask,
                            const LineData &values, bool is_sync);

    /** Word data forwarded from a remote owner for our read. */
    void handleFwdData(Addr line_addr, WordMask mask,
                       const LineData &values,
                       std::uint64_t sent_epoch);

    // Test hooks ------------------------------------------------------
    WordState wordState(Addr addr) const;
    /** Functional view of a word this L1 holds; false if absent. */
    bool peekWord(Addr addr, std::uint32_t &value)
    {
        return peekLocal(addr, value);
    }
    /** Whether this L1 currently owns (has registered) the word. */
    bool
    ownsWord(Addr addr) const
    {
        return wordState(addr) == WordState::Registered;
    }

    /** Diagnostic dump of in-flight transaction state. */
    std::string dumpState();
    std::size_t storeBufferSize() const { return _sb.size(); }
    std::size_t mshrEntries() const { return _mshr.size(); }

    // Diagnostics -----------------------------------------------------
    /** Structured view of outstanding transaction state. */
    ControllerSnapshot snapshot() const override;

    /**
     * Controller-local invariant sweep. @p quiesced additionally
     * requires every outstanding-state structure to be empty (leak
     * detection). @return violation descriptions; empty when clean.
     */
    std::vector<std::string>
    checkInvariants(bool quiesced) const override;

    /** Invoke @p fn with the word address of every Registered word. */
    void forEachRegisteredWord(
        const Callback<void(Addr)> &fn) const;

    /**
     * Test hook for checker regression tests: force a word's
     * coherence state, bypassing the protocol entirely. Installs a
     * frame if the line is absent. NEVER call outside tests.
     */
    void debugCorruptWordState(Addr addr, WordState st);

  private:
    /** Remote request queued behind this CU's pending activity. */
    struct QueuedRemote
    {
        enum class Kind
        {
            ReadFwd,
            Transfer,
        };
        Kind kind;
        WordMask mask;
        NodeId target;
        bool isSync = false;
        bool toL2 = false;
        /** Arrival order relative to local sync ops (fairness). */
        std::uint64_t seq = 0;
        /** Requestor's freshness token (ReadFwd only). */
        std::uint64_t reqEpoch = 0;
    };

    /** Sync access waiting for ownership of its word. */
    struct SyncWaiter
    {
        unsigned word;
        SyncOp op;
        ValueCallback cb;
        /** Arrival order relative to queued remote requests. */
        std::uint64_t seq = 0;
    };

    /** A load waiting on a fill, with its acquire epoch at issue. */
    struct ReadTarget
    {
        Addr addr;
        ValueCallback cb;
        std::uint64_t epoch;
    };

    /** Per-line transaction state (the MSHR payload). */
    struct LineEntry
    {
        WordMask readPending = 0;
        /** Miss words accumulated this cycle, coalesced into one
         *  request per line (a coalesced warp access is one message,
         *  not one per word). */
        WordMask readUnsent = 0;
        bool readFlushScheduled = false;
        /**
         * Loads awaiting data. A reply satisfies targets whose epoch
         * is at most the request's send epoch; newer targets (issued
         * after a later acquire) trigger a fresh fetch, which keeps
         * self-invalidation precise per thread block.
         */
        std::vector<ReadTarget> readTargets;

        /** Words awaiting data-write registration; values below. */
        WordMask dataRegPending = 0;
        LineData pendingStoreData{};

        /** Words awaiting sync registration. */
        WordMask syncRegPending = 0;

        /**
         * Pending registrations held back because a writeback of the
         * same word is still unacknowledged: issuing them early could
         * be reordered with the writeback at the registry and let a
         * stale writeback clobber the new registration. Subset of
         * dataRegPending | syncRegPending.
         */
        WordMask regWaitingWb = 0;
        std::deque<SyncWaiter> syncQueue;
        /** Words whose sync queue is being executed right now. */
        WordMask syncRunning = 0;

        std::vector<QueuedRemote> remoteQueue;

        /** Monotonic arrival counter feeding the seq fields. */
        std::uint64_t nextSeq = 0;

        bool
        idle() const
        {
            return readPending == 0 && readUnsent == 0 &&
                   readTargets.empty() && dataRegPending == 0 &&
                   syncRegPending == 0 && syncQueue.empty() &&
                   syncRunning == 0 && remoteQueue.empty();
        }
    };

    /** Evicted-but-unacknowledged registered words (snoopable). */
    struct WbEntry
    {
        WordMask mask = 0;
        LineData data{};
        /** In-flight writebacks per word; a word stays snoopable
         *  until every writeback covering it was acknowledged. */
        std::array<std::uint8_t, kWordsPerLine> refs{};
    };

    DenovoL2Bank &homeBank(Addr addr);

    /** Look up / allocate the MSHR entry for a line. */
    LineEntry &entryFor(Addr line_addr);
    void maybeFreeEntry(Addr line_addr);

    /** Find a frame for @p line_addr, evicting if necessary. */
    CacheLine &ensureFrame(Addr line_addr);
    void evictFrame(CacheLine &victim);

    void issueRead(Addr line_addr, WordMask mask);
    /** Send the cycle's accumulated miss words as one request. */
    void flushUnsentReads(Addr line_addr);
    void issueRegistration(Addr line_addr, WordMask mask,
                           bool is_sync);

    /**
     * DD+PR: write streaming-region words through to the home bank
     * without obtaining ownership (the GPU-style store path applied
     * selectively to regions the program declared streaming).
     */
    void issueStreamingWrite(Addr line_addr, WordMask mask,
                             const LineData &data);
    void onStreamAck(Addr line_addr, WordMask mask);

    /** Issue registrations that were waiting for a writeback ack. */
    void releaseHeldRegistrations(Addr line_addr);

    void onReadReply(Addr line_addr, WordMask l2_mask,
                     const LineData &data, WordMask self_mask,
                     std::uint64_t sent_epoch);
    void onRegAck(Addr line_addr, WordMask direct_mask,
                  const LineData &values, bool is_sync);

    /** Ownership of @p mask arrived (ack or transfer). */
    void grantWords(Addr line_addr, WordMask mask,
                    const LineData &values, bool values_valid);

    /**
     * Mark arriving read data Valid (never downgrading Registered).
     * Words whose request predates the current acquire epoch are
     * only installed when they lie in the read-only region (DD+RO):
     * read-only data cannot be stale, so self-invalidation exempts
     * it; everything else must observe post-acquire values.
     */
    void installReadData(Addr line_addr, WordMask mask,
                         const LineData &values,
                         std::uint64_t sent_epoch);

    /** Serve read targets now satisfiable from local state. */
    void serveReadTargets(Addr line_addr);

    /**
     * Serve locally satisfiable read targets, then serve targets old
     * enough for the arriving reply data (@p reply_mask words at
     * @p sent_epoch), and re-fetch whatever remains unsatisfied.
     */
    void settleReads(Addr line_addr, WordMask reply_mask,
                     const LineData &reply_data,
                     std::uint64_t sent_epoch);

    /** Try reading a word from SB / array / wb-buffer / MSHR state. */
    bool peekLocal(Addr addr, std::uint32_t &value);

    /**
     * Service the per-word queue of local sync ops and remote
     * requests in arrival order (DeNovoSync0: coalesced local ops
     * already queued are serviced before a queued remote transfer;
     * locals arriving after the transfer re-register afterwards).
     */
    void processSyncQueue(Addr line_addr, unsigned word);

    /** Whether this L1 can currently supply the word's value. */
    bool holdsWord(Addr line_addr, unsigned word);

    /** Respond to a remote read/transfer for currently-served words. */
    void respondReadFwd(Addr line_addr, WordMask mask,
                        NodeId requestor, std::uint64_t req_epoch);
    void respondTransfer(Addr line_addr, WordMask mask, NodeId target,
                         bool is_sync, bool to_l2);

    /** Whether a word has pending local activity (sync coalescing). */
    bool wordBusy(Addr line_addr, unsigned word);

    /** Acquire-side self-invalidation of Valid words (O(1), lazy). */
    void invalidateValid();

    /**
     * Lazily apply acquire invalidations this line missed: sweep
     * Valid words (keeping read-only-region words under DD+RO;
     * Registered words are never invalidated).
     */
    void refreshLine(CacheLine &line);

    void performSync(const SyncOp &op, Scope scope, ValueCallback cb);
    void performLocalHrfSync(const SyncOp &op, ValueCallback cb);

    /**
     * DD+SE: perform the atomic at the home bank's sync engine
     * instead of registering ownership of the sync word here.
     */
    void performEngineSync(const SyncOp &op, Scope scope,
                           ValueCallback cb);
    void finishSync(const SyncOp &op, Scope scope, std::uint32_t value,
                    ValueCallback cb);

    void startDrain(DoneCallback cb);
    void maybeFinishDrains();

    void acceptStore(Addr addr, std::uint32_t value, DoneCallback cb);
    void serviceStallQueue();

    Mesh &_mesh;
    std::vector<DenovoL2Bank *> _banks;
    std::vector<DenovoL1Cache *> _peers;
    const RegionMap &_regions;
    CacheArray _array;
    StoreBuffer _sb;
    CacheTimings _timings;
    MshrTable<LineEntry> _mshr;

    /** Line-keyed, slab-stable: probed by every load's peekLocal. */
    LineTable<WbEntry> _wbBuffer;

    /** Words awaiting data-write registration across all lines. */
    unsigned _pendingWrites = 0;
    std::vector<DoneCallback> _drainWaiters;

    struct StalledStore
    {
        Addr addr;
        std::uint32_t value;
        DoneCallback cb;
    };
    std::deque<StalledStore> _stalledStores;
    bool _overflowDrainActive = false;

    /** Current acquire epoch (lazy self-invalidation). */
    std::uint64_t _curEpoch = 0;

    /**
     * DeNovoSync read-backoff state (syncReadBackoff configs): per
     * spun-on word, the last observed value and the current delay.
     */
    struct ReadBackoff
    {
        std::uint32_t lastValue = 0;
        bool seen = false;
        Cycles delay = 0;
    };
    std::unordered_map<Addr, ReadBackoff> _readBackoff;

    /** Update backoff state after a sync read observed @p value. */
    void noteSyncRead(const SyncOp &op, std::uint32_t value);

    /** Current registration delay for a sync access (0 if none). */
    Cycles syncBackoffDelay(const SyncOp &op);

    stats::Handle<stats::Scalar> _remoteReadsServed;
    stats::Handle<stats::Scalar> _ownershipTransfers;
    stats::Handle<stats::Scalar> _registrationsIssued;
    stats::Handle<stats::Scalar> _syncCoalesced;
    stats::Handle<stats::Scalar> _streamingWrites;
};

} // namespace nosync

#endif // COHERENCE_DENOVO_L1_HH
