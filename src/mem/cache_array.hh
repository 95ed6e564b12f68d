/**
 * @file
 * Set-associative cache tag/data array with per-word coherence state.
 *
 * One line type serves every protocol in the study:
 *  - GPU L1s use the line-valid bit plus (under HRF) the per-word dirty
 *    mask for partial-block flushes.
 *  - DeNovo L1s use the per-word Invalid/Valid/Registered states.
 *  - DeNovo L2 banks (the registry) additionally use the per-word owner
 *    field: a word is either backed by data here or registered to an L1.
 * Unused fields cost simulator memory only, never simulated time.
 */

#ifndef MEM_CACHE_ARRAY_HH
#define MEM_CACHE_ARRAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/functional_mem.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nosync
{

/** Per-word coherence state (DeNovo's three stable states). */
enum class WordState : std::uint8_t
{
    Invalid = 0,
    Valid = 1,
    Registered = 2,
};

/** One cache line frame. */
struct CacheLine
{
    /** Line-aligned address of the cached block; meaningless unless
     *  valid. */
    Addr addr = 0;

    /** Whether the frame holds a line at all. */
    bool valid = false;

    /** Word values. */
    LineData data{};

    /** Per-word coherence state (DeNovo). */
    std::array<WordState, kWordsPerLine> wstate{};

    /** Per-word owner node (DeNovo L2 registry only). */
    std::array<std::int16_t, kWordsPerLine> owner{};

    /** Words written locally and not yet made globally visible. */
    WordMask dirty = 0;

    /** Words belonging to the software read-only region (DD+RO). */
    WordMask readOnly = 0;

    /**
     * RegionMap::version() at which `readOnly` was snapshotted. A
     * resident line whose stamp lags the live map re-snapshots before
     * the mask is trusted (regions re-declared between kernels must
     * not leave stale masks exempting words from self-invalidation).
     */
    std::uint32_t regionVersion = 0;

    /** LRU timestamp. */
    std::uint64_t lruStamp = 0;

    /**
     * Acquire epoch at which this line's Valid words were filled.
     * L1 controllers implement flash/self invalidation lazily: an
     * acquire bumps the controller's epoch in O(1), and a line whose
     * epoch lags is swept on next touch. Registered words (DeNovo),
     * read-only-region words (DD+RO), and locally dirty words (GPU
     * HRF) are exempt from the sweep per their protocol's rules.
     */
    std::uint64_t epoch = 0;

    /** Mask of words in the given state. */
    WordMask
    maskInState(WordState st) const
    {
        WordMask mask = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (wstate[w] == st)
                mask |= static_cast<WordMask>(1u << w);
        }
        return mask;
    }

    /** Reset the frame to an empty state. */
    void
    clear()
    {
        valid = false;
        dirty = 0;
        readOnly = 0;
        regionVersion = 0;
        epoch = 0;
        data = LineData{};
        wstate.fill(WordState::Invalid);
        owner.fill(static_cast<std::int16_t>(kNoNode));
    }
};

/**
 * Tag/data array with LRU replacement.
 *
 * Pure storage: all timing and protocol decisions live in the
 * controllers. Victim selection never evicts here; the controller asks
 * for a victim, performs any writeback/recall protocol work, then
 * installs the new line.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     */
    CacheArray(std::size_t size_bytes, unsigned assoc)
        : _assoc(assoc), _numSets(size_bytes / kLineBytes / assoc),
          _lines(_numSets * assoc, clearedLine())
    {
        panic_if(_numSets == 0, "cache too small: ", size_bytes, " B / ",
                 assoc, "-way");
        panic_if((_numSets & (_numSets - 1)) != 0,
                 "number of sets must be a power of two, got ",
                 _numSets);
    }

    unsigned assoc() const { return _assoc; }
    std::size_t numSets() const { return _numSets; }

    /** Number of frames; frame indices follow array order. */
    std::size_t numFrames() const { return _lines.size(); }

    /** Array-order index of @p line, a frame of this array. */
    std::size_t
    frameIndex(const CacheLine &line) const
    {
        return static_cast<std::size_t>(&line - _lines.data());
    }

    CacheLine &frame(std::size_t index) { return _lines[index]; }

    /** Find the frame holding @p line_addr, or nullptr. */
    CacheLine *
    lookup(Addr line_addr)
    {
        line_addr = lineAlign(line_addr);
        CacheLine *set = setBase(line_addr);
        for (unsigned way = 0; way < _assoc; ++way) {
            if (set[way].valid && set[way].addr == line_addr)
                return &set[way];
        }
        return nullptr;
    }

    const CacheLine *
    lookup(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(line_addr);
    }

    /**
     * Pick the replacement victim frame for @p line_addr: an invalid
     * frame if one exists, otherwise the LRU frame. The caller is
     * responsible for cleaning up the victim's contents before reuse.
     */
    CacheLine *
    findVictim(Addr line_addr)
    {
        CacheLine *set = setBase(lineAlign(line_addr));
        CacheLine *victim = &set[0];
        for (unsigned way = 0; way < _assoc; ++way) {
            if (!set[way].valid)
                return &set[way];
            if (set[way].lruStamp < victim->lruStamp)
                victim = &set[way];
        }
        return victim;
    }

    /**
     * Victim selection with a preference predicate: an invalid frame
     * if any, else the LRU frame satisfying @p preferred, else the
     * overall LRU frame. Used by the DeNovo registry to avoid
     * evicting lines with registered words when possible.
     */
    template <typename Pred>
    CacheLine *
    findVictimPreferring(Addr line_addr, Pred &&preferred)
    {
        CacheLine *set = setBase(lineAlign(line_addr));
        CacheLine *best_pref = nullptr;
        CacheLine *best_any = &set[0];
        for (unsigned way = 0; way < _assoc; ++way) {
            CacheLine &line = set[way];
            if (!line.valid)
                return &line;
            if (line.lruStamp < best_any->lruStamp)
                best_any = &line;
            if (preferred(line) &&
                (!best_pref || line.lruStamp < best_pref->lruStamp)) {
                best_pref = &line;
            }
        }
        return best_pref ? best_pref : best_any;
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line) { line.lruStamp = ++_lruCounter; }

    /**
     * Install a (previously cleaned) frame for @p line_addr and mark it
     * most recently used.
     */
    void
    install(CacheLine &frame, Addr line_addr)
    {
        frame.clear();
        frame.addr = lineAlign(line_addr);
        frame.valid = true;
        touch(frame);
    }

    /** Iterate over every valid frame (for flash operations). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &line : _lines) {
            if (line.valid)
                fn(line);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &line : _lines) {
            if (line.valid)
                fn(line);
        }
    }

  private:
    /** The empty frame every slot starts as (one write per frame). */
    static CacheLine
    clearedLine()
    {
        CacheLine line;
        line.clear();
        return line;
    }

    CacheLine *
    setBase(Addr line_addr)
    {
        std::size_t set =
            (line_addr / kLineBytes) & (_numSets - 1);
        return &_lines[set * _assoc];
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::vector<CacheLine> _lines;
    std::uint64_t _lruCounter = 0;
};

} // namespace nosync

#endif // MEM_CACHE_ARRAY_HH
