/**
 * @file
 * Fragment Memoization over Parallel Frame Rendering (Arnau et al.,
 * ISCA'14), modelled with the configuration the paper compares against
 * in §V-A: two frames rendered in parallel with tiles synchronised, a
 * 32-bit input hash that excludes screen coordinates, and a 2048-entry
 * 4-way LRU lookup table holding hash -> color.
 *
 * The PFR asymmetry the paper highlights is captured directly: the LUT
 * is cleared at the start of every frame *pair*, so the second (odd)
 * frame of a pair reuses fragments cached by the first (even) frame,
 * but the next pair starts cold - "odd frames cannot [reuse] because
 * their previous-frame values are already evicted from the LUT".
 */

#ifndef REGPU_MEMO_FRAGMENT_MEMO_HH
#define REGPU_MEMO_FRAGMENT_MEMO_HH

#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "gpu/raster.hh"

namespace regpu
{

/**
 * The memoization LUT: set-associative, LRU, tagged by the 32-bit
 * fragment signature, holding the memoized output color.
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
    MemoLut(u32 entries, u32 ways)
    {
        validateMemoLutGeometry(entries, ways, "MemoLut");
        numSets = entries / ways;
        sets.resize(numSets);
        for (auto &s : sets)
            s.ways.resize(ways);
    }

    /** Look up a signature. @return true and fill color on hit. */
    bool
    lookup(u32 sig, Color &color)
    {
        stamp++;
        Set &set = sets[sig % numSets];
        for (Way &w : set.ways) {
            if (w.valid && w.tag == sig) {
                color = w.color;
                w.lastUse = stamp;
                return true;
            }
        }
        return false;
    }

    /** Insert (LRU-replace) a signature/color pair. */
    void
    insert(u32 sig, Color color)
    {
        stamp++;
        Set &set = sets[sig % numSets];
        Way *victim = &set.ways[0];
        for (Way &w : set.ways) {
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (w.lastUse < victim->lastUse)
                victim = &w;
        }
        victim->valid = true;
        victim->tag = sig;
        victim->color = color;
        victim->lastUse = stamp;
    }

    /** Clear all entries (frame-pair boundary). */
    void
    clear()
    {
        for (auto &s : sets)
            for (auto &w : s.ways)
                w = Way{};
    }

    /** Storage: tag (4 B) + color (4 B) per entry. */
    u64
    sizeBytes() const
    {
        u64 entries = 0;
        for (const auto &s : sets)
            entries += s.ways.size();
        return entries * 8;
    }

  private:
    struct Way
    {
        bool valid = false;
        u32 tag = 0;
        Color color;
        u64 lastUse = 0;
    };
    struct Set
    {
        std::vector<Way> ways;
    };

    u64 numSets = 0;
    std::vector<Set> sets;
    u64 stamp = 0;
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
 * The cross-pair asymmetry the paper highlights falls out naturally:
 * the first frame of a pair cannot reuse the previous pair's values -
 * they are gone by the time it renders.
 */
class FragmentMemoization : public PipelineHooks,
                            public FragmentMemoClient
{
  public:
    FragmentMemoization(const GpuConfig &_config, StatRegistry &_stats)
        : config(_config), stats(_stats),
          lut(_config.memoLutEntries, _config.memoLutWays),
          tileStreams(_config.numTiles())
    {}

    // ---- PipelineHooks -----------------------------------------------

    void
    frameBegin(u64 frameIndex, bool reSafe) override
    {
        firstOfPair = frameIndex % 2 == 0;
        // Memoization is disabled while the user interacts (the
        // paper's input-response-lag rule); reSafe approximates it.
        active = reSafe;
    }

    void
    tileBegin(TileId tile) override
    {
        currentTile = tile;
        lut.clear();
        if (!active)
            return;
        if (firstOfPair) {
            // This frame populates the stream its pair partner reuses.
            tileStreams[tile].clear();
        } else {
            // Replay the partner frame's fragments through the LUT.
            for (const auto &[sig, color] : tileStreams[tile])
                lut.insert(sig, color);
        }
    }

    FragmentMemoClient *memoClient() override { return this; }

    // ---- FragmentMemoClient --------------------------------------------

    bool
    lookup(u32 signature, Color &reused) override
    {
        if (!active)
            return false;
        stats.inc("memo.lookups");
        if (lut.lookup(signature, reused)) {
            stats.inc("memo.hits");
            return true;
        }
        return false;
    }

    void
    insert(u32 signature, Color color) override
    {
        if (!active)
            return;
        lut.insert(signature, color);
        if (firstOfPair) {
            auto &stream = tileStreams[currentTile];
            // Bound the recorded stream: beyond ~2x the LUT capacity
            // the replay would have evicted everything older anyway.
            if (stream.size() < 2ull * config.memoLutEntries)
                stream.emplace_back(signature, color);
        }
    }

  private:
    const GpuConfig &config;
    StatRegistry &stats;
    MemoLut lut;
    std::vector<std::vector<std::pair<u32, Color>>> tileStreams;
    TileId currentTile = 0;
    bool firstOfPair = true;
    bool active = true;
};

} // namespace regpu

#endif // REGPU_MEMO_FRAGMENT_MEMO_HH
