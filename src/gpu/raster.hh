/**
 * @file
 * The Raster Pipeline: Tile Scheduler fetch, rasterization, Early
 * Depth Test, Fragment Processors, Blending and the on-chip Color /
 * Depth buffers, operating one tile at a time.
 */

#ifndef REGPU_GPU_RASTER_HH
#define REGPU_GPU_RASTER_HH

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
 * A render's texel fetches, compactly: per listed primitive, how many
 * samples it fetched; per sample, its first texel index and its
 * texture cache. Sampler::footprint gives each sample's other three
 * texels, so the capture and the primitives' textures give back every
 * texelFetches call the render made, in order.
 */
struct TexelCapture
{
    std::vector<u32> samples;     //!< per listed primitive, in list order
    std::vector<u32> firstTexel;  //!< per sample, in fetch order
    std::vector<u8> cache;        //!< per sample: its texture cache
};

/**
 * Renders one tile: the functional model of everything between the
 * Tile Scheduler and the Tile Flush. Charges no statistics itself: the
 * caller folds the returned TileRenderStats.
 *
 * The hot path does per primitive what does not change per fragment:
 * the shader kind, blend mode and instruction count, the varyings the
 * shader reads (only those are interpolated, and z only under a depth
 * test), and each edge function's per-column products. It steps four
 * pixels of a row at a time, one per lane, through coverage, the depth
 * test, interpolation, sampling and shading, then emits each covered
 * pixel's memo calls, texel fetches and blend in pixel order. Its float
 * work follows the contract in docs/ARCHITECTURE.md ("The raster
 * kernel's float contract"), so it matches tests/reference_raster.hh,
 * the naive per-pixel form, bit for bit. The Depth Buffer is
 * per-thread scratch, cleared at the tile's first depth-tested
 * primitive, so a warm renderTile allocates nothing.
 */
class TileRenderer
{
  public:
    /** @param _mem  memory sink; nullptr renders a "shadow" tile that
     *               records no traffic (ground truth for skipped tiles)
     *  @param _memo optional memoization hook (Fragment Memoization) */
    TileRenderer(const GpuConfig &_config, MemTraceSink *_mem,
                 const std::vector<Texture> &_textures,
                 FragmentMemoClient *_memo = nullptr)
        : config(_config), mem(_mem), textures(_textures), memo(_memo)
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
     *                   fetches, whether or not a memory sink is set
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
    MemTraceSink *mem;
    const std::vector<Texture> &textures;
    FragmentMemoClient *memo;
};

} // namespace regpu

#endif // REGPU_GPU_RASTER_HH
