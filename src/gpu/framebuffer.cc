#include "gpu/framebuffer.hh"

namespace regpu
{

void
FrameBuffer::writeTile(TileId tile, const std::vector<Color> &colors)
{
    auto &surf = surfaces[back];
    forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 w) {
        std::copy_n(colors.data() + t, w, surf.data() + s);
        return true;
    });
}

std::vector<Color>
FrameBuffer::readTile(TileId tile) const
{
    std::vector<Color> out(static_cast<std::size_t>(config.tileWidth)
                           * config.tileHeight, Color(0, 0, 0, 0));
    const auto &surf = surfaces[back];
    forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 w) {
        std::copy_n(surf.data() + s, w, out.data() + t);
        return true;
    });
    return out;
}

bool
FrameBuffer::tileEquals(TileId tile, const std::vector<Color> &colors) const
{
    const auto &surf = surfaces[back];
    return forEachTileRow(tile, [&](std::size_t s, std::size_t t, u32 w) {
        return std::equal(colors.data() + t, colors.data() + t + w,
                          surf.data() + s);
    });
}

bool
FrameBuffer::surfacesEqual(TileId tile) const
{
    const Color *a = surfaces[0].data();
    const Color *b = surfaces[1].data();
    return forEachTileRow(tile, [&](std::size_t s, std::size_t, u32 w) {
        return std::equal(a + s, a + s + w, b + s);
    });
}

} // namespace regpu
