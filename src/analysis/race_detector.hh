/**
 * @file
 * Happens-before race detector for DRF/HRF workloads.
 *
 * A vector-clock engine that consumes the functional access stream at
 * the TbContext / L1 seams through the same single null-pointer-gated
 * hook pattern as trace::TraceSink: when race checking is disabled the
 * detector is never constructed and the entire instrumentation cost is
 * one null check per seam, so disabled runs stay bitwise identical.
 *
 * Threads are simulated thread blocks (one clock slot per TB instance
 * per kernel). Happens-before edges come from the paper's sync points:
 *
 *  - atomics: a release publishes the issuing TB's clock on the sync
 *    word; a later acquire on the same word (in coherence order — the
 *    hooks sit where the atomic functionally performs, so detector
 *    order IS coherence order) joins what was published;
 *  - TB barriers and mutexes (sync_primitives.hh) reduce to chains of
 *    such atomics and need no special handling;
 *  - kernel launch/drain: the implicit device-wide release/acquire of
 *    fence_policy.hh §2 — every TB of kernel k happens-before every
 *    TB of kernel k+1.
 *
 * Scope handling mirrors ProtocolConfig::effectiveScope. Under DRF
 * configurations (GD/DD/DD+RO) every sync is global and a conflicting
 * unordered pair is a plain DRF violation. Under HRF configurations
 * (GH/DH) a local-scope release only reaches acquires on the same CU
 * (the shared L1 is the visibility domain); the detector additionally
 * maintains a shadow "as-if-all-sync-were-global" clock, and a pair
 * that is ordered under the shadow but not under the scoped clocks is
 * reported as a *scope race* — conflicting cross-CU accesses ordered
 * only by local-scope synchronization, the exact bug class HRF
 * invites and the paper argues against.
 *
 * Multi-device machines insert a *device* scope between CU-local and
 * global: a device-scope release reaches acquires anywhere on the
 * same device but not across the inter-device link. The detector
 * keeps per-device published clocks (only when constructed with
 * devices > 1, so single-device runs stay bitwise identical) and the
 * same shadow-clock divergence reports cross-device pairs ordered
 * only by device-scope sync as scope races.
 */

#ifndef ANALYSIS_RACE_DETECTOR_HH
#define ANALYSIS_RACE_DETECTOR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/protocol.hh"
#include "mem/line_table.hh"
#include "sim/types.hh"

namespace nosync
{
namespace analysis
{

/** Slot value marking a SyncOp issued outside race checking. */
constexpr std::uint32_t kNoRaceSlot = 0xffffffffu;

/** What kind of access participated in a race. */
enum class AccessKind : std::uint8_t
{
    Load,        ///< data load (incl. coalesced loadMany)
    Store,       ///< data store (incl. coalesced storeMany)
    AtomicLoad,  ///< synchronization read
    AtomicStore, ///< synchronization write
    AtomicRmw,   ///< synchronization read-modify-write
};

/** Short human name of an access kind. */
const char *accessKindName(AccessKind kind);

/** Classification of an unordered conflicting pair. */
enum class RaceKind : std::uint8_t
{
    Data,  ///< no happens-before path at all (DRF violation)
    Scope, ///< ordered only by local-scope sync (HRF scope race)
};

/** Provenance of one side of a racing pair. */
struct RaceAccess
{
    unsigned kernel = 0;   ///< kernel launch index
    unsigned tb = 0;       ///< global thread-block index in the kernel
    unsigned cu = 0;       ///< compute unit the TB ran on
    Tick tick = 0;         ///< simulated tick the access was issued
    AccessKind kind = AccessKind::Load;

    bool sync() const { return kind != AccessKind::Load &&
                               kind != AccessKind::Store; }
};

/** One detected race: two conflicting, unordered accesses. */
struct RaceRecord
{
    RaceKind kind = RaceKind::Data;
    Addr addr = 0;       ///< conflicting word
    RaceAccess first;    ///< earlier access (coherence order)
    RaceAccess second;   ///< access that completed the race
    bool suppressed = false;
    std::string suppressReason;
};

/** Known-benign address range excluded from failure accounting. */
struct RaceSuppression
{
    Addr base = 0;
    Addr bytes = 0;
    std::string reason;
};

/** Everything a finished race-checked run reports. */
struct RaceReport
{
    bool enabled = false;
    std::string workload;
    std::string config;

    std::uint64_t dataAccesses = 0;  ///< data reads + writes checked
    std::uint64_t syncPerforms = 0;  ///< atomics observed performing
    std::uint64_t hbEdges = 0;       ///< release->acquire joins
    std::uint64_t wordsTracked = 0;  ///< distinct shadow words
    std::uint64_t racesDetected = 0; ///< unique racing pairs
    std::uint64_t racesSuppressed = 0;
    std::uint64_t recordsDropped = 0; ///< unique races past the cap

    /**
     * The record cap hit: some racing pairs are counted but carry no
     * detail record. A truncated report must not satisfy a
     * --require-clean gate even if every *carried* record is
     * suppressed — the dropped ones were never classified.
     */
    bool truncated = false;

    /** Detailed records, sorted by (second.tick, addr). */
    std::vector<RaceRecord> races;

    /** Races that count as failures (detected minus suppressed). */
    std::uint64_t
    failureCount() const
    {
        return racesDetected - racesSuppressed;
    }
};

/** One-line description of a race (checkFailures / table output). */
std::string describeRace(const RaceRecord &race);

/** Full allocator-style provenance report, HangReport-rendered. */
std::string renderRaceReport(const RaceReport &report);

/** Write @p report as machine-readable JSON (tools/validate_races.py
 *  schema-checks the emission). Returns false if @p path can't open. */
bool writeRaceJson(const RaceReport &report, const std::string &path);

/**
 * The happens-before engine. One instance per race-checked System;
 * every hook site holds a nullable pointer to it.
 */
class RaceDetector
{
  public:
    /** Default detailed-record cap before counting-only mode. */
    static constexpr std::size_t kMaxRecords = 128;

    /**
     * @p devices / @p cusPerDevice describe the machine topology for
     * device-scope handling; the defaults (single device) keep the
     * detector's state layout — and therefore its reports — bitwise
     * identical to pre-multi-device builds.
     */
    explicit RaceDetector(const ProtocolConfig &config,
                          unsigned devices = 1,
                          unsigned cusPerDevice = 0);

    /**
     * Override the detailed-record cap (--race-cap=N in the
     * harnesses). Races past the cap are still *counted* (and flip
     * RaceReport::truncated); only their detail records are dropped.
     */
    void
    setRecordCap(std::size_t cap)
    {
        _maxRecords = cap ? cap : kMaxRecords;
    }

    std::size_t recordCap() const { return _maxRecords; }

    // Thread-block lifecycle (GpuDevice) ------------------------------

    /**
     * A thread block of kernel @p kernel starts on @p cu. Returns the
     * TB's clock slot; the TbContext carries it on every access.
     */
    unsigned tbStarted(unsigned kernel, unsigned tb_global,
                       unsigned cu);

    /**
     * A kernel drained: the implicit global release/acquire pair at
     * the kernel boundary. Joins every listed slot's clock into the
     * device base clock inherited by the next kernel's TBs.
     */
    void tbFinished(unsigned slot);

    // PDES engine mode ------------------------------------------------

    /**
     * Give every domain a private staging lane: access-stream hooks
     * called during the engine's parallel phase append to their
     * domain's lane instead of mutating the vector-clock state;
     * drainStaged() replays the lanes at each window barrier in
     * canonical (tick, domain, deposit) order, which is the engine's
     * coherence order. TB lifecycle hooks (tbStarted/tbFinished) run
     * in coordinator context and stay direct.
     */
    void enableDomainStaging(unsigned domains);

    /** Replay and clear all staging lanes (window barrier). */
    void drainStaged();

    // Functional access stream (TbContext) ----------------------------

    /** Data load issued by @p slot at word address @p addr. */
    void dataRead(unsigned slot, Addr addr, Tick tick);

    /** Data store issued by @p slot at word address @p addr. */
    void dataWrite(unsigned slot, Addr addr, Tick tick);

    // Synchronization stream (L1/L2 perform sites) --------------------

    /**
     * An atomic functionally performed (applyAtomic ran). Called from
     * the coherence controllers at the point the operation takes its
     * place in coherence order; op.tb carries the issuing slot (ops
     * issued outside race checking carry kNoRaceSlot and are
     * ignored). op.addr must be word-aligned, like the data hooks'
     * addresses: the shadow memory is kept per word.
     */
    void syncPerformed(const SyncOp &op, Tick tick);

    // Reporting -------------------------------------------------------

    /** Install the workload's known-benign ranges (post-init). */
    void setSuppressions(std::vector<RaceSuppression> suppressions);

    /**
     * Sort records by (second.tick, addr), apply suppressions, and
     * build the final report. Deterministic for a given run, so
     * serial and --jobs=N sweeps render identical reports.
     */
    RaceReport finalize(const std::string &workload,
                        const std::string &config);

  private:
    /** Vector clock over TB slots (grows as kernels launch TBs). */
    using Clock = std::vector<std::uint32_t>;

    /** Compact record of one prior access to a shadow word. */
    struct Access
    {
        std::uint32_t slot = kNoRaceSlot;
        std::uint32_t clock = 0;    ///< C_slot[slot] at access time
        std::uint32_t drfClock = 0; ///< shadow all-global clock value
        AccessKind kind = AccessKind::Load;
        Tick tick = 0;
    };
    static_assert(sizeof(Access) == 24, "Access packs into 24 bytes");

    /** Per-word shadow state (FastTrack-style write + reader set). */
    struct ShadowWord
    {
        Access write;
        std::vector<Access> readers;
    };

    /**
     * Shadow state of one cache line: its words in place, plus which
     * of them have been accessed (for RaceReport::wordsTracked).
     * Lines are never erased, so a ShadowLine pointer stays valid
     * for the detector's lifetime (LineTable slabs never move).
     */
    struct ShadowLine
    {
        std::array<ShadowWord, kWordsPerLine> words;
        WordMask touched = 0;
    };

    /** Per-TB clock state. */
    struct TbState
    {
        unsigned kernel = 0;
        unsigned tbGlobal = 0;
        unsigned cu = 0;
        unsigned device = 0; ///< device the CU belongs to
        Clock real; ///< scope-aware happens-before
        Clock drf;  ///< as-if-all-sync-were-global shadow (HRF only)
    };

    /** Per-sync-word published clocks. */
    struct SyncVar
    {
        Clock global;                ///< global-scope releases
        std::vector<Clock> perCu;    ///< any-scope releases, by CU
        /** Device-and-wider releases, by device (multi-device only). */
        std::vector<Clock> perDevice;
        Clock drf;                   ///< shadow: every release
    };

    /** One staged access-stream call (engine parallel phase). */
    struct StagedOp
    {
        static constexpr std::uint8_t kRead = 0;
        static constexpr std::uint8_t kWrite = 1;
        static constexpr std::uint8_t kSync = 2;

        std::uint8_t kind = kRead;
        std::uint32_t slot = 0;
        Addr addr = 0;
        Tick tick = 0;
        SyncOp op{}; ///< kSync only
    };

    /** Per-domain staging lane (engine mode). */
    struct alignas(64) StageLane
    {
        std::vector<StagedOp> ops;
    };

    /** Stage the call if inside a domain; false = apply directly. */
    bool stage(StagedOp op);

    void applyDataRead(unsigned slot, Addr addr, Tick tick);
    void applyDataWrite(unsigned slot, Addr addr, Tick tick);
    void applySyncPerformed(const SyncOp &op, Tick tick);

    /** Shadow state of the word at @p addr (created on first use). */
    ShadowWord &shadowWord(Addr addr);

    static void join(Clock &into, const Clock &from);
    static std::uint32_t at(const Clock &clock, std::uint32_t slot);

    bool orderedReal(const Access &prev, const TbState &now) const;
    bool orderedDrf(const Access &prev, const TbState &now) const;

    Access makeAccess(const TbState &state, unsigned slot, Tick tick,
                      AccessKind kind) const;
    void report(Addr addr, const Access &prev, unsigned slot,
                Tick tick, AccessKind kind);
    void checkAndRecordRead(unsigned slot, Addr addr, Tick tick,
                            AccessKind kind);
    void checkAndRecordWrite(unsigned slot, Addr addr, Tick tick,
                             AccessKind kind);

    ProtocolConfig _config;
    bool _hrf;
    unsigned _cusPerDevice;
    /** Track per-device clocks at all (false on single-device). */
    bool _multiDevice;

    std::vector<TbState> _tbs;
    Clock _base;    ///< device clock: joined at kernel boundaries
    Clock _baseDrf;

    /** Built on first use: constructing a detector allocates nothing
     *  (the DPOR explorer builds one per schedule). */
    std::optional<LineTable<ShadowLine>> _shadow;
    /** Last-line cache: the line of the previous access and its
     *  shadow (~0 is never a line address, so it starts empty). */
    Addr _lastLine = ~Addr{0};
    ShadowLine *_lastShadow = nullptr;
    std::unordered_map<Addr, SyncVar> _syncVars;

    std::vector<StageLane> _stages;
    std::vector<StagedOp> _stageBuf;

    std::vector<RaceRecord> _races;
    std::set<std::tuple<Addr, std::uint32_t, std::uint32_t>> _seen;
    std::vector<RaceSuppression> _suppressions;

    std::size_t _maxRecords = kMaxRecords;
    std::uint64_t _dataAccesses = 0;
    std::uint64_t _syncPerforms = 0;
    std::uint64_t _hbEdges = 0;
    std::uint64_t _wordsTracked = 0;
    std::uint64_t _racesDetected = 0;
    std::uint64_t _recordsDropped = 0;
};

} // namespace analysis
} // namespace nosync

#endif // ANALYSIS_RACE_DETECTOR_HH
