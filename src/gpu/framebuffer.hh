/**
 * @file
 * Double-buffered Frame Buffer in simulated main memory.
 *
 * The display scans out the Front Buffer while the GPU renders into
 * the Back Buffer; buffers swap at frame end (paper §IV-C). Tile
 * contents therefore persist for two frames, which is why RE and TE
 * compare a tile against the frame *before* the displayed one.
 */

#ifndef REGPU_GPU_FRAMEBUFFER_HH
#define REGPU_GPU_FRAMEBUFFER_HH

#include <algorithm>
#include <vector>

#include "common/config.hh"
#include "gpu/color.hh"

namespace regpu
{

/**
 * Two full-screen color surfaces plus tile-granularity access helpers.
 */
class FrameBuffer
{
  public:
    explicit FrameBuffer(const GpuConfig &_config)
        : config(_config),
          surfaces{std::vector<Color>(pixelCount()),
                   std::vector<Color>(pixelCount())}
    {}

    /** Pixels per surface. */
    std::size_t
    pixelCount() const
    {
        return static_cast<std::size_t>(config.screenWidth)
            * config.screenHeight;
    }

    /** Index of the surface the GPU currently renders into. */
    u32 backIndex() const { return back; }

    /** Swap front and back (end of frame). */
    void swap() { back ^= 1; }

    /** Simulated base address of the back buffer. */
    Addr
    backAddr() const
    {
        return 0x4'0000'0000ull + (static_cast<Addr>(back) << 31);
    }

    /** Simulated address of a tile's first pixel in the back buffer. */
    Addr
    tileAddr(TileId tile) const
    {
        const u32 tx = tile % config.tilesX();
        const u32 ty = tile / config.tilesX();
        const Addr pixel = static_cast<Addr>(ty) * config.tileHeight
            * config.screenWidth + static_cast<Addr>(tx) * config.tileWidth;
        return backAddr() + pixel * 4;
    }

    /** Bytes one tile occupies (clipped tiles at screen edges count
     *  their real pixel footprint). */
    u32
    tileBytes(TileId tile) const
    {
        const u32 tx = tile % config.tilesX();
        const u32 ty = tile / config.tilesX();
        const u32 w = std::min(config.tileWidth,
                               config.screenWidth - tx * config.tileWidth);
        const u32 h = std::min(config.tileHeight,
                               config.screenHeight - ty * config.tileHeight);
        return w * h * 4;
    }

    /**
     * Write a rendered tile (tileWidth x tileHeight colors, row-major;
     * off-screen pixels of edge tiles are ignored) into the back buffer.
     */
    void writeTile(TileId tile, const std::vector<Color> &colors);

    /** Read a tile from the back buffer (row-major, edge pixels of
     *  off-screen regions returned as clear black). */
    std::vector<Color> readTile(TileId tile) const;

    /** Compare a rendered tile against the back buffer's current
     *  content (ground truth for redundancy classification), one
     *  memcmp per on-screen row. */
    bool tileEquals(TileId tile, const std::vector<Color> &colors) const;

    /** Whether the front and back surfaces hold the same on-screen
     *  colors in @p tile. Right after a frame's swap that compares the
     *  frame just rendered with the one before it (Fig. 2). */
    bool surfacesEqual(TileId tile) const;

    /** Direct pixel access to the back buffer (tests, image dumps). */
    Color
    pixel(u32 x, u32 y) const
    {
        return surfaces[back][static_cast<std::size_t>(y)
                              * config.screenWidth + x];
    }

    /** Direct pixel access to the front buffer. */
    Color
    frontPixel(u32 x, u32 y) const
    {
        return surfaces[back ^ 1][static_cast<std::size_t>(y)
                                  * config.screenWidth + x];
    }

    /** Whole back-buffer snapshot (row-major). */
    const std::vector<Color> &backSurface() const
    { return surfaces[back]; }

  private:
    /**
     * Walk the on-screen part of @p tile row by row, calling
     * fn(surfaceIndex, tileIndex, width) with the row's first pixel in
     * a surface and in a row-major tile, and its clipped width. Stops
     * as soon as fn returns false. @return false iff fn stopped it.
     */
    template <typename Fn>
    bool
    forEachTileRow(TileId tile, Fn &&fn) const
    {
        const u32 x0 = (tile % config.tilesX()) * config.tileWidth;
        const u32 y0 = (tile / config.tilesX()) * config.tileHeight;
        const u32 w = std::min(config.tileWidth, config.screenWidth - x0);
        const u32 h = std::min(config.tileHeight,
                               config.screenHeight - y0);
        for (u32 dy = 0; dy < h; dy++)
            if (!fn(static_cast<std::size_t>(y0 + dy) * config.screenWidth
                        + x0,
                    static_cast<std::size_t>(dy) * config.tileWidth, w))
                return false;
        return true;
    }

    const GpuConfig &config;
    std::vector<Color> surfaces[2];
    u32 back = 0;
};

} // namespace regpu

#endif // REGPU_GPU_FRAMEBUFFER_HH
