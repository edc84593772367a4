/**
 * @file
 * Fragment Memoization over Parallel Frame Rendering (Arnau et al.,
 * ISCA'14), modelled with the configuration the paper compares against
 * in §V-A: two frames rendered in parallel with tiles synchronised, a
 * 32-bit input hash that excludes screen coordinates, and a 2048-entry
 * 4-way LRU lookup table holding hash -> color.
 *
 * The LUT is per-tile scratch: it is wiped at the start of every tile
 * and rebuilt from the partner frame's fragments of that tile. That
 * captures the PFR asymmetry the paper highlights: the second (odd)
 * frame of a pair reuses fragments the first (even) frame shaded, but
 * the first frame of the next pair finds nothing to reuse - "odd
 * frames cannot [reuse] because their previous-frame values are
 * already evicted from the LUT".
 */

#ifndef REGPU_MEMO_FRAGMENT_MEMO_HH
#define REGPU_MEMO_FRAGMENT_MEMO_HH

#include <span>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "gpu/raster.hh"

namespace regpu
{

/**
 * The memoization LUT: set-associative, LRU, tagged by the 32-bit
 * fragment signature, holding the memoized output color. The ways are
 * one set-major array, and clear() is O(1): a way is valid only if it
 * was last touched after the most recent clear.
 */
class MemoLut
{
  public:
    /**
     * @param entries total LUT entries; must be a positive multiple of
     *        @p ways (otherwise `sig % numSets` below would divide by
     *        zero / silently drop capacity)
     * @param ways set associativity; must be >= 1
     */
    MemoLut(u32 entries, u32 ways) { reset(entries, ways); }

    /** Look up a signature. @return true and fill color on hit. */
    bool
    lookup(u32 sig, Color &color)
    {
        for (Way &w : set(sig)) {
            if (w.lastUse > clearedAt && w.tag == sig) {
                color = w.color;
                w.lastUse = ++stamp;
                return true;
            }
        }
        return false;
    }

    /** Insert (LRU-replace) a signature/color pair. */
    void
    insert(u32 sig, Color color)
    {
        std::span<Way> ways = set(sig);
        Way *victim = &ways[0];
        for (Way &w : ways) {
            if (w.lastUse <= clearedAt) {
                victim = &w;
                break;
            }
            if (w.lastUse < victim->lastUse)
                victim = &w;
        }
        *victim = {sig, color, ++stamp};
    }

    /** Invalidate every entry. */
    void clear() { clearedAt = stamp; }

    /** Storage: tag (4 B) + color (4 B) per entry. */
    u64 sizeBytes() const { return u64(table.size()) * 8; }

    /** clear(), first reshaping to @p entries x @p ways if needed. */
    void
    reset(u32 entries, u32 ways)
    {
        if (table.size() != entries || numWays != ways) {
            validateMemoLutGeometry(entries, ways, "MemoLut");
            numSets = entries / ways;
            numWays = ways;
            table.assign(entries, Way{});
        }
        clear();
    }

  private:
    struct Way
    {
        u32 tag = 0;
        Color color;
        u64 lastUse = 0; //!< stamp of the last insert or hit
    };

    std::span<Way>
    set(u32 sig)
    {
        return {&table[sig % numSets * numWays], numWays};
    }

    u32 numSets = 0;
    u32 numWays = 0;
    std::vector<Way> table; //!< set s holds ways [s*numWays, (s+1)*numWays)
    u64 stamp = 0;          //!< last stamp handed out
    u64 clearedAt = 0;      //!< stamp at the last clear()
};

/**
 * PipelineHooks + FragmentMemoClient implementation of PFR-aided
 * Fragment Memoization.
 *
 * PFR renders two consecutive frames in parallel with their tiles
 * synchronised, so when tile t of the pair's second frame reaches the
 * fragment stage, the LUT's live contents are tile t of the first
 * frame (plus the second frame's own earlier fragments of the tile).
 * Our simulator renders frames sequentially, so we reconstruct that
 * live set exactly: the first frame of each pair records its per-tile
 * (signature, color) streams; at tileBegin of the second frame, the
 * LUT is rebuilt by replaying the recorded stream (capacity and LRU
 * replacement apply, so an over-large stream thrashes just as the
 * real LUT would - the paper's "space-limited LUT only captures ~60%
 * of the potential").
 *
 * The LUT holds nothing across tiles, so each rendering thread keeps
 * one, which tileBegin rebuilds and binds to the tile's stream.
 */
class FragmentMemoization : public PipelineHooks,
                            public FragmentMemoClient
{
  public:
    /** @param _stats the registry of the pipeline it hooks: the memo
     *         counters are derived from its raster counters */
    FragmentMemoization(const GpuConfig &_config, StatRegistry &_stats)
        : config(_config), stats(_stats), streams(_config.numTiles())
    {
        validateMemoLutGeometry(config.memoLutEntries, config.memoLutWays,
                                "MemoLut");
    }

    // ---- PipelineHooks -----------------------------------------------

    void
    frameBegin(u64 frameIndex, bool reSafe) override
    {
        firstOfPair = frameIndex % 2 == 0;
        // Memoization is disabled while the user interacts (the
        // paper's input-response-lag rule); reSafe approximates it.
        active = reSafe;
        shadedBefore = stats.counter("raster.fragmentsShaded");
        reusedBefore = stats.counter("raster.fragmentsMemoReused");
    }

    void
    frameEnd() override
    {
        // In an active frame every fragment the raster shaded or
        // reused made one lookup, and every reuse was a hit.
        if (!active)
            return;
        const u64 hits =
            stats.counter("raster.fragmentsMemoReused") - reusedBefore;
        const u64 lookups =
            stats.counter("raster.fragmentsShaded") - shadedBefore + hits;
        // A zero fold would create a counter no lookup touched.
        if (lookups)
            stats.inc("memo.lookups", lookups);
        if (hits)
            stats.inc("memo.hits", hits);
    }

    FragmentMemoClient *memoClient() override { return this; }

    // ---- FragmentMemoClient --------------------------------------------

    void
    tileBegin(TileId tile) override
    {
        if (!active)
            return;
        Binding &b = bound();
        b.lut.reset(config.memoLutEntries, config.memoLutWays);
        b.stream = &streams[tile];
        if (firstOfPair) {
            // This frame populates the stream its pair partner reuses.
            b.stream->clear();
        } else {
            // Replay the partner frame's fragments through the LUT.
            for (const auto &[sig, color] : *b.stream)
                b.lut.insert(sig, color);
        }
    }

    bool
    lookup(u32 signature, Color &reused) override
    {
        return active && bound().lut.lookup(signature, reused);
    }

    void
    insert(u32 signature, Color color) override
    {
        if (!active)
            return;
        Binding &b = bound();
        b.lut.insert(signature, color);
        // Bound the recorded stream: beyond ~2x the LUT capacity the
        // replay would have evicted everything older anyway.
        if (firstOfPair && b.stream->size() < 2ull * config.memoLutEntries)
            b.stream->emplace_back(signature, color);
    }

  private:
    /** A tile's (signature, color) stream from the pair's 1st frame,
     *  touched during the raster phase only by the thread rendering
     *  that tile. */
    using Stream = std::vector<std::pair<u32, Color>>;

    /** The calling thread's LUT and the stream of the tile it is
     *  bound to. */
    struct Binding
    {
        MemoLut lut{1, 1}; //!< reshaped by the first tileBegin
        Stream *stream = nullptr;
    };

    static Binding &
    bound()
    {
        thread_local Binding binding;
        return binding;
    }

    const GpuConfig &config;
    StatRegistry &stats;
    std::vector<Stream> streams; //!< one per tile
    bool firstOfPair = true;
    bool active = true;
    u64 shadedBefore = 0; //!< raster counters at frameBegin
    u64 reusedBefore = 0;
};

} // namespace regpu

#endif // REGPU_MEMO_FRAGMENT_MEMO_HH
