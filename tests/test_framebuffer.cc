/**
 * @file
 * Frame Buffer tests: tile addressing, double buffering, comparison.
 */

#include <gtest/gtest.h>

#include "gpu/framebuffer.hh"

using namespace regpu;

namespace
{

struct FbFixture : ::testing::Test
{
    GpuConfig config;

    FbFixture()
    {
        config.scaleResolution(64, 48); // 4x3 tiles
    }

    std::vector<Color>
    solidTile(Color c)
    {
        return std::vector<Color>(
            static_cast<std::size_t>(config.tileWidth)
            * config.tileHeight, c);
    }
};

} // namespace

TEST_F(FbFixture, WriteReadRoundTrip)
{
    FrameBuffer fb(config);
    auto tile = solidTile(Color(1, 2, 3));
    fb.writeTile(5, tile);
    EXPECT_EQ(fb.readTile(5), tile);
}

TEST_F(FbFixture, WritesLandAtCorrectPixels)
{
    FrameBuffer fb(config);
    auto tile = solidTile(Color(9, 9, 9));
    fb.writeTile(1, tile); // second tile of the first row
    EXPECT_EQ(fb.pixel(16, 0), Color(9, 9, 9));
    EXPECT_EQ(fb.pixel(15, 0), Color(0, 0, 0, 255));
    EXPECT_EQ(fb.pixel(31, 15), Color(9, 9, 9));
    EXPECT_EQ(fb.pixel(32, 0), Color(0, 0, 0, 255));
}

TEST_F(FbFixture, TileEqualsDetectsEquality)
{
    FrameBuffer fb(config);
    auto tile = solidTile(Color(7, 8, 9));
    fb.writeTile(2, tile);
    EXPECT_TRUE(fb.tileEquals(2, tile));
    tile[100] = Color(0, 0, 0);
    EXPECT_FALSE(fb.tileEquals(2, tile));
}

TEST_F(FbFixture, SwapExchangesSurfaces)
{
    FrameBuffer fb(config);
    fb.writeTile(0, solidTile(Color(1, 1, 1)));
    u32 backBefore = fb.backIndex();
    fb.swap();
    EXPECT_NE(fb.backIndex(), backBefore);
    // After the swap the back buffer is the other (still clear)
    // surface; the written tile is now on the front.
    EXPECT_EQ(fb.pixel(0, 0), Color(0, 0, 0, 255));
    EXPECT_EQ(fb.frontPixel(0, 0), Color(1, 1, 1));
    fb.swap();
    EXPECT_EQ(fb.pixel(0, 0), Color(1, 1, 1));
}

TEST_F(FbFixture, DoubleBufferPersistenceAcrossTwoFrames)
{
    // A tile written in frame N is still in the back buffer at frame
    // N+2: the property RE's reuse (and its N vs N-2 compare) relies
    // on.
    FrameBuffer fb(config);
    auto tile = solidTile(Color(4, 5, 6));
    fb.writeTile(3, tile);   // frame 0
    fb.swap();
    fb.swap();               // frame 2: same physical surface is back
    EXPECT_TRUE(fb.tileEquals(3, tile));
}

TEST_F(FbFixture, TileAddressesDisjointAndAligned)
{
    FrameBuffer fb(config);
    Addr a0 = fb.tileAddr(0);
    Addr a1 = fb.tileAddr(1);
    EXPECT_EQ(a1 - a0, static_cast<Addr>(config.tileWidth) * 4);
    fb.swap();
    EXPECT_NE(fb.tileAddr(0), a0); // other surface, other region
}

TEST_F(FbFixture, TileBytesFullAndEdgeTiles)
{
    GpuConfig odd;
    odd.scaleResolution(40, 20); // 3x2 tiles; last col 8 px, last row 4
    FrameBuffer fb(odd);
    EXPECT_EQ(fb.tileBytes(0), 16u * 16 * 4);
    EXPECT_EQ(fb.tileBytes(2), 8u * 16 * 4);   // right edge
    EXPECT_EQ(fb.tileBytes(3), 16u * 4 * 4);   // bottom edge
    EXPECT_EQ(fb.tileBytes(5), 8u * 4 * 4);    // corner
}

TEST_F(FbFixture, EdgeTileWriteDoesNotOverflow)
{
    GpuConfig odd;
    odd.scaleResolution(40, 20);
    FrameBuffer fb(odd);
    auto tile = std::vector<Color>(16 * 16, Color(3, 3, 3));
    fb.writeTile(5, tile); // corner tile, 8x4 visible
    EXPECT_EQ(fb.pixel(39, 19), Color(3, 3, 3));
    EXPECT_TRUE(fb.tileEquals(5, tile)); // only visible region compared
}

namespace
{

/**
 * 40x24 screen with 16x16 tiles: 3x2 tiles, the right column 8 pixels
 * wide and the bottom row 8 pixels high, so every tile but tile 0 is
 * clipped. The tests below check the row-walking fast paths against
 * per-pixel oracles written with nothing but pixel()/frontPixel().
 */
struct ClippedFb : ::testing::Test
{
    GpuConfig config;

    ClippedFb() { config.scaleResolution(40, 24); }

    u32 tileX0(TileId t) const { return (t % config.tilesX()) * 16; }
    u32 tileY0(TileId t) const { return (t / config.tilesX()) * 16; }

    bool
    onScreen(TileId t, u32 dx, u32 dy) const
    {
        return tileX0(t) + dx < config.screenWidth
            && tileY0(t) + dy < config.screenHeight;
    }

    /** A full 16x16 tile whose every position has its own color. */
    static std::vector<Color>
    pattern(TileId t, u8 salt = 0)
    {
        std::vector<Color> c(16 * 16);
        for (u32 i = 0; i < c.size(); i++)
            c[i] = Color(static_cast<u8>(t + 1), static_cast<u8>(i),
                         static_cast<u8>(i >> 8), salt);
        return c;
    }
};

} // namespace

TEST_F(ClippedFb, WriteTileTouchesOnlyOnScreenPixelsOfItsTile)
{
    ASSERT_EQ(config.numTiles(), 6u);
    for (TileId t = 0; t < config.numTiles(); t++) {
        SCOPED_TRACE("tile " + std::to_string(t));
        FrameBuffer fb(config);
        const std::vector<Color> colors = pattern(t);
        fb.writeTile(t, colors);
        for (u32 y = 0; y < config.screenHeight; y++)
            for (u32 x = 0; x < config.screenWidth; x++) {
                const Color want = config.tileAt(x, y) == t
                    ? colors[(y - tileY0(t)) * 16 + (x - tileX0(t))]
                    : Color();
                ASSERT_EQ(fb.pixel(x, y), want) << x << "," << y;
                ASSERT_EQ(fb.frontPixel(x, y), Color()) << x << "," << y;
            }
    }
}

TEST_F(ClippedFb, ReadTilePadsOffScreenPixelsWithClearBlack)
{
    FrameBuffer fb(config);
    for (TileId t = 0; t < config.numTiles(); t++)
        fb.writeTile(t, pattern(t));
    for (TileId t = 0; t < config.numTiles(); t++) {
        SCOPED_TRACE("tile " + std::to_string(t));
        const std::vector<Color> got = fb.readTile(t);
        ASSERT_EQ(got.size(), 16u * 16);
        for (u32 dy = 0; dy < 16; dy++)
            for (u32 dx = 0; dx < 16; dx++) {
                const Color want = onScreen(t, dx, dy)
                    ? fb.pixel(tileX0(t) + dx, tileY0(t) + dy)
                    : Color(0, 0, 0, 0);
                EXPECT_EQ(got[dy * 16 + dx], want) << dx << "," << dy;
            }
    }
}

TEST_F(ClippedFb, TileEqualsComparesExactlyTheOnScreenPixels)
{
    FrameBuffer fb(config);
    for (TileId t = 0; t < config.numTiles(); t++)
        fb.writeTile(t, pattern(t));
    for (TileId t = 0; t < config.numTiles(); t++) {
        SCOPED_TRACE("tile " + std::to_string(t));
        ASSERT_TRUE(fb.tileEquals(t, pattern(t)));
        for (u32 i = 0; i < 16 * 16; i++) {
            std::vector<Color> changed = pattern(t);
            changed[i].b ^= 0x80;
            EXPECT_EQ(fb.tileEquals(t, changed),
                      !onScreen(t, i % 16, i / 16)) << i;
        }
    }
}

TEST_F(ClippedFb, SurfacesEqualComparesExactlyTheTilesOnScreenPixels)
{
    // Both surfaces hold the same image; then change one on-screen
    // pixel of the back surface at a time. Exactly the tile owning it
    // must compare unequal, and no other (a row walk that wrapped past
    // the screen edge would reach a neighbouring tile's pixels).
    FrameBuffer fb(config);
    for (int surface = 0; surface < 2; surface++) {
        for (TileId t = 0; t < config.numTiles(); t++)
            fb.writeTile(t, pattern(t));
        fb.swap();
    }
    for (TileId t = 0; t < config.numTiles(); t++)
        ASSERT_TRUE(fb.surfacesEqual(t));
    for (u32 y = 0; y < config.screenHeight; y++)
        for (u32 x = 0; x < config.screenWidth; x++) {
            const TileId owner = config.tileAt(x, y);
            std::vector<Color> changed = pattern(owner);
            changed[(y - tileY0(owner)) * 16 + (x - tileX0(owner))].a ^= 1;
            fb.writeTile(owner, changed);
            for (TileId t = 0; t < config.numTiles(); t++)
                ASSERT_EQ(fb.surfacesEqual(t), t != owner)
                    << "pixel " << x << "," << y << " tile " << t;
            fb.writeTile(owner, pattern(owner));
        }
    // Off-screen entries of a written tile never reach a surface.
    for (TileId t = 0; t < config.numTiles(); t++) {
        std::vector<Color> changed = pattern(t, 7);
        for (u32 i = 0; i < changed.size(); i++)
            if (onScreen(t, i % 16, i / 16))
                changed[i] = pattern(t)[i];
        fb.writeTile(t, changed);
        EXPECT_TRUE(fb.surfacesEqual(t)) << t;
    }
}
