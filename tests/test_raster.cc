/**
 * @file
 * Raster Pipeline tests: coverage, early-Z, shading, blending and the
 * per-tile statistics the timing model consumes.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "gpu/binning.hh"
#include "gpu/memiface.hh"
#include "gpu/raster.hh"
#include "gpu/tile_pool.hh"

using namespace regpu;

namespace
{

/**
 * Fixture with a 32x32 screen (2x2 tiles) and helpers to rasterize
 * hand-built primitives.
 */
struct RasterFixture : ::testing::Test
{
    GpuConfig config;
    std::vector<Texture> textures;
    std::vector<DrawCall> draws;
    BinnedFrame frame;

    RasterFixture()
    {
        config.scaleResolution(32, 32);
        textures.emplace_back(0, 32, 32, TexturePattern::Solid, 7);
        frame.tileLists.assign(config.numTiles(), {});
    }

    /** Add a screen-space triangle bound to drawcall state @p state. */
    void
    addTriangle(float x0, float y0, float x1, float y1, float x2,
                float y2, PipelineState state, float z = 0.5f)
    {
        Primitive p;
        p.v[0].x = x0; p.v[0].y = y0;
        p.v[1].x = x1; p.v[1].y = y1;
        p.v[2].x = x2; p.v[2].y = y2;
        for (int i = 0; i < 3; i++) {
            p.v[i].z = z;
            p.v[i].invW = 1.0f;
            p.v[i].color = {1, 1, 1, 1};
        }
        p.drawIndex = static_cast<u32>(draws.size());
        DrawCall d;
        d.state = state;
        d.layout.hasTexcoord = true;
        draws.push_back(d);

        u32 primIdx = static_cast<u32>(frame.primitives.size());
        frame.primitives.push_back(p);
        StatRegistry tmp;
        PolygonListBuilder plb(config, tmp, nullptr);
        for (TileId t : plb.overlappedTiles(p))
            frame.tileLists[t].push_back({primIdx, 0x200000000ull, 64});
    }

    TileRenderStats
    render(TileId tile, std::vector<Color> &out)
    {
        TileRenderer r(config, nullptr, textures);
        return r.renderTile(tile, frame, draws, Color(0, 0, 0), out);
    }
};

PipelineState
flatState(Vec4 tint = {1, 0, 0, 1})
{
    PipelineState s;
    s.shader = ShaderKind::Flat;
    s.uniforms.tint = tint;
    return s;
}

} // namespace

TEST_F(RasterFixture, EmptyTileIsClearColor)
{
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_EQ(ts.fragmentsGenerated, 0u);
    for (Color c : out)
        EXPECT_EQ(c, Color(0, 0, 0));
}

TEST_F(RasterFixture, FullTileCoverage)
{
    addTriangle(0, 0, 64, 0, 0, 64, flatState());
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_EQ(ts.fragmentsGenerated, 256u);
    for (Color c : out)
        EXPECT_EQ(c, Color(255, 0, 0));
}

TEST_F(RasterFixture, HalfTileDiagonalCoverage)
{
    addTriangle(0, 0, 16, 0, 0, 16, flatState());
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    // Diagonal half of a 16x16 tile: 120 +- the edge rule band.
    EXPECT_GT(ts.fragmentsGenerated, 100u);
    EXPECT_LT(ts.fragmentsGenerated, 140u);
}

TEST_F(RasterFixture, SharedEdgeHasNoGapsOrDoubleHits)
{
    // Two triangles sharing the diagonal of the tile: every pixel
    // covered at least once; interior pixels never twice (watertight
    // within floating-point edge consistency).
    addTriangle(0, 0, 16, 0, 16, 16, flatState({1, 0, 0, 1}));
    addTriangle(0, 0, 16, 16, 0, 16, flatState({0, 1, 0, 1}));
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_GE(ts.fragmentsGenerated, 256u);
    EXPECT_LE(ts.fragmentsGenerated, 256u + 16u); // shared edge overlap
    for (Color c : out)
        EXPECT_TRUE(c == Color(255, 0, 0) || c == Color(0, 255, 0));
}

TEST_F(RasterFixture, EarlyZKillsOccludedFragments)
{
    PipelineState nearState = flatState({1, 0, 0, 1});
    PipelineState farState = flatState({0, 0, 1, 1});
    addTriangle(0, 0, 64, 0, 0, 64, nearState, 0.2f); // drawn first, near
    addTriangle(0, 0, 64, 0, 0, 64, farState, 0.8f);  // behind
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_EQ(ts.fragmentsEarlyZKilled, 256u);
    EXPECT_EQ(ts.fragmentsShaded, 256u);
    for (Color c : out)
        EXPECT_EQ(c, Color(255, 0, 0));
}

TEST_F(RasterFixture, DepthWriteOffDoesNotOcclude)
{
    PipelineState nearNoWrite = flatState({1, 0, 0, 1});
    nearNoWrite.depthWrite = false;
    PipelineState farState = flatState({0, 0, 1, 1});
    addTriangle(0, 0, 64, 0, 0, 64, nearNoWrite, 0.2f);
    addTriangle(0, 0, 64, 0, 0, 64, farState, 0.8f);
    std::vector<Color> out;
    render(0, out);
    for (Color c : out)
        EXPECT_EQ(c, Color(0, 0, 255));
}

TEST_F(RasterFixture, AlphaBlendComposites)
{
    PipelineState opaque = flatState({0, 0, 1, 1});
    opaque.depthTest = false;
    PipelineState translucent = flatState({1, 0, 0, 0.5f});
    translucent.depthTest = false;
    translucent.blendMode = BlendMode::AlphaBlend;
    addTriangle(0, 0, 64, 0, 0, 64, opaque);
    addTriangle(0, 0, 64, 0, 0, 64, translucent);
    std::vector<Color> out;
    render(0, out);
    // Half red over blue.
    EXPECT_NEAR(out[0].r, 128, 2);
    EXPECT_NEAR(out[0].b, 127, 2);
}

TEST_F(RasterFixture, TexturedShaderSamplesTexture)
{
    PipelineState s;
    s.shader = ShaderKind::Textured;
    s.textureId = 0;
    s.depthTest = false;
    addTriangle(0, 0, 64, 0, 0, 64, s);
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_GT(ts.texelFetches, 0u);
    Color texColor = textures[0].texel(0, 0);
    EXPECT_EQ(out[5], texColor);
}

TEST_F(RasterFixture, ShaderInstructionAccounting)
{
    addTriangle(0, 0, 64, 0, 0, 64, flatState());
    std::vector<Color> out;
    TileRenderStats ts = render(0, out);
    EXPECT_EQ(ts.shaderInstructions,
              256u * fragmentShaderInstructions(ShaderKind::Flat));
}

TEST_F(RasterFixture, TileIsolation)
{
    // A triangle in tile 0 must not touch tile 3.
    addTriangle(0, 0, 12, 0, 0, 12, flatState());
    std::vector<Color> out;
    TileRenderStats ts = render(3, out);
    EXPECT_EQ(ts.fragmentsGenerated, 0u);
}

TEST_F(RasterFixture, ShadowRenderChargesNothing)
{
    PipelineState s;
    s.shader = ShaderKind::Textured;
    s.textureId = 0;
    addTriangle(0, 0, 64, 0, 0, 64, s);
    MemEventRecorder sink;
    std::vector<Color> out;
    // A charged render of the tile records parameter reads and texel
    // fetches...
    TileRenderStats charged = TileRenderer(config, &sink, textures)
        .renderTile(0, frame, draws, Color(0, 0, 0), out);
    ASSERT_GT(charged.texelFetches, 0u);
    ASSERT_GT(sink.size(), 0u);
    // ...and the shadow render of skipped tiles, which has no sink,
    // produces the same colors and the same work.
    std::vector<Color> shadow;
    TileRenderStats uncharged = TileRenderer(config, nullptr, textures)
        .renderTile(0, frame, draws, Color(0, 0, 0), shadow);
    EXPECT_EQ(shadow, out);
    EXPECT_EQ(uncharged.fragmentsShaded, charged.fragmentsShaded);
    EXPECT_EQ(uncharged.texelFetches, charged.texelFetches);
}

TEST_F(RasterFixture, DeterministicColors)
{
    PipelineState s;
    s.shader = ShaderKind::Textured;
    s.textureId = 0;
    s.depthTest = false;
    addTriangle(0, 0, 64, 0, 0, 64, s);
    std::vector<Color> a, b;
    render(0, a);
    render(0, b);
    EXPECT_EQ(a, b);
}

TEST(FragmentSignature, ExcludesScreenCoordinates)
{
    // Same shader inputs at different screen positions must produce
    // the same memoization signature (paper §V-A).
    DrawCall d;
    d.state.shader = ShaderKind::Textured;
    d.state.textureId = 3;
    u32 a = TileRenderer::fragmentSignature(d, {1, 1, 1, 1},
                                            {0.25f, 0.5f}, 1.0f);
    u32 b = TileRenderer::fragmentSignature(d, {1, 1, 1, 1},
                                            {0.25f, 0.5f}, 1.0f);
    EXPECT_EQ(a, b);
}

TEST(FragmentSignature, SensitiveToInputs)
{
    DrawCall d;
    d.state.shader = ShaderKind::Textured;
    d.state.textureId = 3;
    u32 base = TileRenderer::fragmentSignature(d, {1, 1, 1, 1},
                                               {0.25f, 0.5f}, 1.0f);
    u32 uvChange = TileRenderer::fragmentSignature(d, {1, 1, 1, 1},
                                                   {0.30f, 0.5f}, 1.0f);
    EXPECT_NE(base, uvChange);
    d.state.textureId = 4;
    u32 texChange = TileRenderer::fragmentSignature(d, {1, 1, 1, 1},
                                                    {0.25f, 0.5f}, 1.0f);
    EXPECT_NE(base, texChange);
}

TEST(FragmentSignature, ExactBitsRequiredForConsumedVaryings)
{
    // Memoized reuse must be bit-exact: any difference in a consumed
    // varying changes the signature.
    DrawCall d;
    d.state.shader = ShaderKind::VertexColor;
    u32 a = TileRenderer::fragmentSignature(d, {0.5f, 0.5f, 0.5f, 1},
                                            {0, 0}, 1.0f);
    u32 b = TileRenderer::fragmentSignature(
        d, {0.5f + 1e-4f, 0.5f, 0.5f, 1}, {0, 0}, 1.0f);
    EXPECT_NE(a, b);
}

TEST(FragmentSignature, IgnoresVaryingsTheShaderDoesNotConsume)
{
    // A flat-shaded fragment's color is independent of vertex color
    // and texcoords; its signature must be too, or flat fills would
    // never find reuse.
    DrawCall d;
    d.state.shader = ShaderKind::Flat;
    u32 a = TileRenderer::fragmentSignature(d, {0.1f, 0.2f, 0.3f, 1},
                                            {0.4f, 0.5f}, 0.6f);
    u32 b = TileRenderer::fragmentSignature(d, {0.9f, 0.8f, 0.7f, 1},
                                            {0.6f, 0.5f}, 0.4f);
    EXPECT_EQ(a, b);
}

TEST(FragmentSignature, SensitiveToUniformTint)
{
    DrawCall d;
    d.state.shader = ShaderKind::Flat;
    u32 a = TileRenderer::fragmentSignature(d, {1, 1, 1, 1}, {0, 0}, 1);
    d.state.uniforms.tint = {0.5f, 1, 1, 1};
    u32 b = TileRenderer::fragmentSignature(d, {1, 1, 1, 1}, {0, 0}, 1);
    EXPECT_NE(a, b);
}
