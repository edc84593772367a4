/**
 * @file
 * The Raster Pipeline: Tile Scheduler fetch, rasterization, Early
 * Depth Test, Fragment Processors, Blending and the on-chip Color /
 * Depth buffers, operating one tile at a time.
 */

#ifndef REGPU_GPU_RASTER_HH
#define REGPU_GPU_RASTER_HH

#include <array>
#include <vector>

#include "common/config.hh"
#include "gpu/binning.hh"
#include "gpu/color.hh"
#include "gpu/texture.hh"
#include "gpu/vertex.hh"

namespace regpu
{

class MemTraceSink;

/**
 * Hook through which Fragment Memoization intercepts fragment shading.
 * Returns true (and fills @p reused) when the fragment's color can be
 * reused from the memoization LUT, bypassing shader execution and
 * texture fetches.
 * One tile's tileBegin, lookup and insert calls arrive on one thread,
 * in order; other tiles may be in flight on other threads.
 */
class FragmentMemoClient
{
  public:
    virtual ~FragmentMemoClient() = default;

    /**
     * The Raster Pipeline is about to process @p tile. PFR keeps the
     * two in-flight frames tile-synchronised, so the memoization LUT's
     * live contents at this point are the paired frame's fragments of
     * the same tile; implementations reload their LUT model here.
     */
    virtual void tileBegin(TileId /*tile*/) {}

    /**
     * @param signature 32-bit hash of the fragment's shader inputs
     *                  (screen coordinates excluded, paper §V-A)
     * @param reused    filled with the memoized color on a hit
     * @return true on LUT hit
     */
    virtual bool lookup(u32 signature, Color &reused) = 0;

    /** Record a freshly computed fragment for later reuse. */
    virtual void insert(u32 signature, Color color) = 0;
};

/** Per-tile rendering statistics (feed the timing model). */
struct TileRenderStats
{
    u32 primitivesFetched = 0;
    u32 fragmentsGenerated = 0;   //!< rasterised, pre-depth-test
    u32 fragmentsEarlyZKilled = 0;
    u32 fragmentsShaded = 0;      //!< executed the fragment shader
    u32 fragmentsMemoReused = 0;  //!< served by the memoization LUT
    u64 shaderInstructions = 0;
    u32 texelFetches = 0;
    u32 blendOps = 0;
    u64 parameterBytesRead = 0;

    bool operator==(const TileRenderStats &) const = default;
};

/**
 * Drops, within one tile, every texel fetch whose line is the most
 * recent line the tile has fetched in that set of that texture cache:
 * by the LRU stack property such a fetch hits and reorders no set,
 * whatever the cache held when the tile began, so the cache model can
 * count it instead (docs/ARCHITECTURE.md, "Phase 1"). One slot per set
 * of each texture cache; beginTile empties them all by starting a new
 * generation.
 */
class TexelRepeatFilter
{
  public:
    /** Start a tile: one slot per set of each of @p config's texture
     *  caches, none holding a line. */
    void beginTile(const GpuConfig &config);

    /** Whether a fetch of @p addr through texture cache @p cache is of
     *  the most recent line this tile fetched in that set. If not, its
     *  line becomes that. */
    bool
    repeats(u32 cache, Addr addr)
    {
        const Addr line = addr >> lineShift;
        Slot &slot = slots[(std::size_t{cache} << setBits)
                           + (line & setMask)];
        if (slot.line == line && slot.generation == generation)
            return true;
        slot = {line, generation};
        return false;
    }

    /** repeats() for one bilinear sample's four fetches, in order.
     *  Fetches 1 and 3 sit beside 0 and 2 in a texel row, so most of
     *  them share that fetch's line and repeat it without a lookup.
     *  @return a bit per fetch kept, fetch 0 lowest */
    u32
    keptOfSample(u32 cache, const std::array<Addr, 4> &addrs)
    {
        u32 kept = 0;
        for (u32 k = 0; k < 4; k++) {
            if (k % 2 && addrs[k] >> lineShift == addrs[k - 1] >> lineShift)
                continue;
            if (!repeats(cache, addrs[k]))
                kept |= 1u << k;
        }
        return kept;
    }

  private:
    struct Slot
    {
        Addr line = 0;
        u64 generation = 0;  //!< the tile that fetched line (0: none)
    };
    std::vector<Slot> slots;  //!< cache c's sets from c << setBits on
    u64 generation = 0;
    u32 lineShift = 0;
    u32 setBits = 0;
    Addr setMask = 0;
};

/**
 * One render's texel fetches, as the cache model needs them: those a
 * TexelRepeatFilter kept, in fetch order, and per texture cache a
 * count of those it dropped. The capture and the tile's primitive list
 * give back every memory event the cache model needs (emit).
 */
struct TexelCapture
{
    /** One texture cache's dropped fetches. */
    struct Repeats
    {
        Addr lastAddr = 0;  //!< the address the cache fetched last
        u32 count = 0;      //!< fetches dropped
    };

    std::vector<u32> primFirst;    //!< per listed primitive: its first
                                   //!< kept fetch
    std::vector<u32> texel;        //!< per kept fetch: its texel index
    std::vector<u8> cache;         //!< per kept fetch: its texture cache
    std::vector<Repeats> repeats;  //!< per texture cache

    /**
     * Send @p sink the memory events of the render of @p tile that this
     * captured: per listed primitive, in order, a parameterRead at this
     * frame's PrimRef, then its kept fetches; then, per texture cache,
     * its dropped fetches as one texelRepeatHits. The caches end as the
     * render's every fetch would have left them, with the same counts.
     * The listed primitives must read the textures the render read.
     * @return the fetches sent as repeat hits
     */
    u64 emit(MemTraceSink &sink, TileId tile, const BinnedFrame &frame,
             const std::vector<DrawCall> &draws,
             const std::vector<Texture> &textures) const;
};

/**
 * Renders one tile: the functional model of everything between the
 * Tile Scheduler and the Tile Flush. Charges no statistics and sends
 * no memory events itself: the caller folds the returned
 * TileRenderStats and emits the TexelCapture.
 *
 * The hot path does per primitive what does not change per fragment:
 * the shader kind, blend mode and instruction count, the varyings the
 * shader reads (only those are interpolated, and z only under a depth
 * test), and each edge function's per-column products. It steps four
 * pixels of a row at a time, one per lane, through coverage, the depth
 * test, interpolation, sampling and shading, then makes each covered
 * pixel's memo calls, texel fetches and blend in pixel order. Its float
 * work follows the contract in docs/ARCHITECTURE.md ("The raster
 * kernel's float contract"), so it matches tests/reference_raster.hh,
 * the naive per-pixel form, bit for bit. The Depth Buffer is
 * per-thread scratch, cleared at the tile's first depth-tested
 * primitive, and so is the repeat filter, so a warm renderTile into a
 * warm capture allocates nothing.
 */
class TileRenderer
{
  public:
    /** @param _memo optional memoization hook (Fragment Memoization) */
    TileRenderer(const GpuConfig &_config,
                 const std::vector<Texture> &_textures,
                 FragmentMemoClient *_memo = nullptr)
        : config(_config), textures(_textures), memo(_memo)
    {}

    /**
     * Render all primitives binned to @p tile.
     *
     * @param tile       tile id
     * @param frame      binned frame (primitive data)
     * @param draws      the frame's drawcalls (pipeline state lookup)
     * @param clearColor tile background
     * @param outColors  tileWidth*tileHeight colors, row-major
     * @param capture    if non-null, overwritten with the render's texel
     *                   fetches, through the calling thread's
     *                   TexelRepeatFilter: the render's only memory
     *                   events besides its parameter reads
     * @return per-tile statistics
     */
    TileRenderStats renderTile(TileId tile, const BinnedFrame &frame,
                               const std::vector<DrawCall> &draws,
                               Color clearColor,
                               std::vector<Color> &outColors,
                               TexelCapture *capture = nullptr);

    /**
     * Compute the memoization signature of a fragment: hash of shader
     * kind, uniforms, texture id and quantised varyings - but not the
     * screen coordinates (paper §V-A).
     */
    static u32 fragmentSignature(const DrawCall &draw, Vec4 color,
                                 Vec2 texcoord, float diffuse);

  private:
    const GpuConfig &config;
    const std::vector<Texture> &textures;
    FragmentMemoClient *memo;
};

} // namespace regpu

#endif // REGPU_GPU_RASTER_HH
