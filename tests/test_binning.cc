/**
 * @file
 * Tiling Engine tests: exact tile overlap, Parameter Buffer
 * accounting, observer callbacks.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "gpu/binning.hh"
#include "gpu/memiface.hh"

using namespace regpu;

namespace
{

Primitive
screenTriangle(float x0, float y0, float x1, float y1, float x2, float y2)
{
    Primitive p;
    p.v[0].x = x0; p.v[0].y = y0;
    p.v[1].x = x1; p.v[1].y = y1;
    p.v[2].x = x2; p.v[2].y = y2;
    for (int i = 0; i < 3; i++) {
        p.v[i].z = 0.5f;
        p.v[i].invW = 1.0f;
    }
    return p;
}

struct BinFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;

    BinFixture()
    {
        config.scaleResolution(128, 128); // 8x8 tiles of 16x16
    }

    std::vector<TileId>
    overlap(const Primitive &p)
    {
        PolygonListBuilder plb(config, stats, nullptr);
        return plb.overlappedTiles(p);
    }
};

} // namespace

TEST_F(BinFixture, FarOffVertexBinsLikeANearerOne)
{
    // x = 3e10 is outside the int range: the bounds are clamped to the
    // screen in float before converting, so the triangle lists the
    // same tiles as with x = 1e9 (every tile in rows 0-2).
    config.scaleResolution(64, 64);
    const auto near = overlap(screenTriangle(8, 8, 1e9f, 8, 8, 40));
    const auto far = overlap(screenTriangle(8, 8, 3e10f, 8, 8, 40));
    EXPECT_EQ(near.size(), 12u);
    EXPECT_EQ(far, near);
}

TEST_F(BinFixture, SmallTriangleHitsOneTile)
{
    Primitive p = screenTriangle(2, 2, 10, 2, 2, 10);
    auto tiles = overlap(p);
    ASSERT_EQ(tiles.size(), 1u);
    EXPECT_EQ(tiles[0], 0u);
}

TEST_F(BinFixture, TriangleSpanningTwoTiles)
{
    Primitive p = screenTriangle(8, 4, 24, 4, 8, 12);
    auto tiles = overlap(p);
    ASSERT_EQ(tiles.size(), 2u);
    EXPECT_EQ(tiles[0], 0u);
    EXPECT_EQ(tiles[1], 1u);
}

TEST_F(BinFixture, FullScreenTriangleHitsManyTiles)
{
    Primitive p = screenTriangle(0, 0, 256, 0, 0, 256);
    auto tiles = overlap(p);
    // Covers the whole 8x8 grid (hypotenuse runs beyond the corner).
    EXPECT_EQ(tiles.size(), 64u);
}

TEST_F(BinFixture, EdgeTestPrunesBboxCorners)
{
    // A thin diagonal sliver: its bbox spans a 4x4 tile block but the
    // triangle itself only crosses the diagonal band.
    Primitive p = screenTriangle(0, 0, 64, 64, 0, 4);
    auto tiles = overlap(p);
    // Bbox would claim 5x5 = 25 tiles (x up to 64 enters tile col 4).
    EXPECT_LT(tiles.size(), 25u);
    // The top-right bbox tile (col 3, row 0) is far from the band.
    for (TileId t : tiles)
        EXPECT_NE(t, 3u);
}

TEST_F(BinFixture, OffscreenTriangleOverlapsNothing)
{
    Primitive p = screenTriangle(-50, -50, -10, -50, -50, -10);
    EXPECT_TRUE(overlap(p).empty());
}

TEST_F(BinFixture, PartiallyOffscreenClampsToGrid)
{
    Primitive p = screenTriangle(-20, -20, 20, -20, -20, 20);
    auto tiles = overlap(p);
    ASSERT_EQ(tiles.size(), 1u);
    EXPECT_EQ(tiles[0], 0u);
}

TEST_F(BinFixture, WindingDoesNotAffectOverlap)
{
    Primitive ccw = screenTriangle(4, 4, 40, 4, 4, 40);
    Primitive cw = screenTriangle(4, 4, 4, 40, 40, 4);
    EXPECT_EQ(overlap(ccw), overlap(cw));
}

TEST_F(BinFixture, RowMajorOrder)
{
    Primitive p = screenTriangle(0, 0, 48, 0, 0, 48);
    auto tiles = overlap(p);
    for (std::size_t i = 1; i < tiles.size(); i++)
        EXPECT_LT(tiles[i - 1], tiles[i]);
}

TEST_F(BinFixture, BinDrawcallFillsTileListsAndParameterBuffer)
{
    PolygonListBuilder plb(config, stats, nullptr);
    BinnedFrame frame;
    plb.beginFrame(frame);

    DrawCall draw;
    draw.layout.hasTexcoord = true;
    draw.vertices.resize(3);
    std::vector<Primitive> prims{screenTriangle(2, 2, 30, 2, 2, 30)};
    prims[0].firstVertex = 0;
    plb.binDrawcall(draw, prims, frame);

    EXPECT_EQ(frame.primitives.size(), 1u);
    u64 listed = 0;
    for (const auto &list : frame.tileLists)
        listed += list.size();
    EXPECT_GE(listed, 3u); // triangle covers several tiles
    EXPECT_GT(frame.parameterBytes, 0u);
}

TEST_F(BinFixture, ObserverSeesEveryBinnedPrimitive)
{
    PolygonListBuilder plb(config, stats, nullptr);
    BinnedFrame frame;
    plb.beginFrame(frame);

    u32 observed = 0;
    u64 observedTiles = 0;
    plb.setObserver([&](const Primitive &, const DrawCall &,
                        const std::vector<TileId> &tiles) {
        observed++;
        observedTiles += tiles.size();
    });

    DrawCall draw;
    draw.vertices.resize(6);
    std::vector<Primitive> prims{
        screenTriangle(2, 2, 30, 2, 2, 30),
        screenTriangle(100, 100, 120, 100, 100, 120),
    };
    plb.binDrawcall(draw, prims, frame);
    EXPECT_EQ(observed, 2u);
    EXPECT_EQ(observedTiles, stats.counter("binning.tileOverlaps"));
}

TEST_F(BinFixture, OffscreenPrimitiveNotObservedNotStored)
{
    PolygonListBuilder plb(config, stats, nullptr);
    BinnedFrame frame;
    plb.beginFrame(frame);
    u32 observed = 0;
    plb.setObserver([&](const Primitive &, const DrawCall &,
                        const std::vector<TileId> &) { observed++; });
    DrawCall draw;
    draw.vertices.resize(3);
    std::vector<Primitive> prims{
        screenTriangle(-90, -90, -50, -90, -90, -50)};
    plb.binDrawcall(draw, prims, frame);
    EXPECT_EQ(observed, 0u);
    EXPECT_EQ(frame.primitives.size(), 0u);
    EXPECT_EQ(stats.counter("binning.primitivesOffscreen"), 1u);
}

TEST_F(BinFixture, BeginFrameResetsState)
{
    PolygonListBuilder plb(config, stats, nullptr);
    BinnedFrame frame;
    plb.beginFrame(frame);
    DrawCall draw;
    draw.vertices.resize(3);
    std::vector<Primitive> prims{screenTriangle(2, 2, 30, 2, 2, 30)};
    plb.binDrawcall(draw, prims, frame);
    u64 firstBytes = frame.parameterBytes;

    plb.beginFrame(frame);
    EXPECT_EQ(frame.parameterBytes, 0u);
    EXPECT_TRUE(frame.primitives.empty());
    plb.binDrawcall(draw, prims, frame);
    EXPECT_EQ(frame.parameterBytes, firstBytes);
}
