/**
 * @file
 * Raster Pipeline tests: coverage, early-Z, shading, blending and the
 * per-tile statistics the timing model consumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/rng.hh"
#include "common/stats.hh"
#include "gpu/binning.hh"
#include "gpu/memiface.hh"
#include "gpu/raster.hh"
#include "reference_raster.hh"

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
        TileRenderer r(config, textures);
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

TEST(RasterBounds, FarOffVertexRendersLikeANearerOne)
{
    // x = 3e10 is outside the int range: the bounds are clamped to the
    // tile in float before converting, so tile 0 gets the same 8x8
    // fragments as with x = 1e9 (and no out-of-range write).
    GpuConfig config;
    config.scaleResolution(64, 64);
    const std::vector<Texture> textures;
    std::vector<DrawCall> draws(1);
    draws[0].state = flatState();
    std::vector<Color> colors[2];
    for (int i = 0; i < 2; i++) {
        Primitive p;
        p.v[0].x = 8; p.v[0].y = 8;
        p.v[1].x = i ? 3e10f : 1e9f; p.v[1].y = 8;
        p.v[2].x = 8; p.v[2].y = 40;
        BinnedFrame frame;
        frame.primitives.push_back(p);
        frame.tileLists.assign(config.numTiles(), {});
        frame.tileLists[0].push_back({0, 0x200000000ull, 64});
        TileRenderStats ts = TileRenderer(config, textures)
            .renderTile(0, frame, draws, Color(0, 0, 0), colors[i]);
        EXPECT_EQ(ts.fragmentsGenerated, 64u) << "x = " << p.v[1].x;
    }
    EXPECT_EQ(colors[0], colors[1]);
}

// ---- The fast path against the naive reference --------------------------

namespace
{

/** Every call a MemTraceSink receives, flattened, in order: a
 *  texelFetches call as one texelFetch per address, so how fetches are
 *  batched into calls is not compared. */
struct SinkLog : MemTraceSink
{
    std::vector<u64> calls;

    void put(std::initializer_list<u64> v)
    { calls.insert(calls.end(), v); }

    void vertexFetch(Addr a, u32 n) override { put({0, a, n}); }
    void parameterWrite(Addr a, u32 n) override { put({1, a, n}); }
    void parameterRead(Addr a, u32 n) override { put({2, a, n}); }
    void texelFetch(u32 cache, Addr a) override { put({3, cache, a}); }
    void texelRepeatHits(u32 cache, Addr a, u32 n) override
    { put({4, cache, a, n}); }
    void colorFlush(Addr a, u32 n) override { put({5, a, n}); }
    void colorRead(Addr a, u32 n) override { put({6, a, n}); }
};

/** A memo client that logs every call and hits on a fixed third of
 *  the signatures, so both the reuse and the shading path run. */
struct MemoLog : FragmentMemoClient
{
    std::vector<u64> calls;

    void tileBegin(TileId tile) override
    { calls.insert(calls.end(), {0, tile}); }
    bool
    lookup(u32 sig, Color &reused) override
    {
        calls.insert(calls.end(), {1, sig});
        if (sig % 3 != 0)
            return false;
        reused = Color::fromPacked(sig * 2654435761u);
        return true;
    }
    void insert(u32 sig, Color color) override
    { calls.insert(calls.end(), {2, sig, color.packed()}); }
};

/** A seeded random frame of 1-12 triangles on a 40x24 screen. 16x16
 *  tiles make 3x2 tiles, the right column and the bottom row
 *  clipped. */
struct OracleFrame
{
    GpuConfig config;
    std::vector<Texture> textures;
    std::vector<DrawCall> draws;
    BinnedFrame frame;

    OracleFrame(u64 seed, u32 tileWidth, u32 tileHeight, u32 textureCaches)
    {
        config.tileWidth = tileWidth;
        config.tileHeight = tileHeight;
        config.numTextureCaches = textureCaches;
        config.scaleResolution(40, 24);
        textures.emplace_back(0, 32, 32, TexturePattern::Noise, seed);
        textures.emplace_back(1, 16, 64, TexturePattern::Atlas, seed);
        frame.tileLists.assign(config.numTiles(), {});
        Rng rng(seed);
        const u32 count = 1 + static_cast<u32>(rng.nextBounded(12));
        for (u32 i = 0; i < count; i++)
            addTriangle(rng, i);
    }

    void
    addTriangle(Rng &rng, u32 i)
    {
        DrawCall d;
        PipelineState &st = d.state;
        st.shader = static_cast<ShaderKind>(rng.nextBounded(5));
        st.textureId = rng.nextBool(0.9f)
            ? static_cast<i32>(rng.nextBounded(2)) : -1;
        st.blendMode = static_cast<BlendMode>(rng.nextBounded(3));
        st.depthTest = rng.nextBool();
        st.depthWrite = rng.nextBool();
        st.uniforms.tint = {rng.nextFloatRange(0, 1.5f),
                            rng.nextFloatRange(0, 1.5f),
                            rng.nextFloatRange(0, 1.5f), rng.nextFloat()};

        Primitive p;
        // 0-1: on screen, 2: screen-spanning, 3: degenerate.
        const u64 shape = rng.nextBounded(4);
        const float span = shape == 2 ? 400.0f : 48.0f;
        for (ShadedVertex &v : p.v) {
            v.x = rng.nextFloatRange(-span / 4, 40 + span / 4);
            v.y = rng.nextFloatRange(-span / 4, 24 + span / 4);
            v.z = rng.nextFloatRange(-0.1f, 1.1f);
            v.invW = rng.nextFloatRange(0.05f, 2.0f);
            v.color = {rng.nextFloatRange(-0.25f, 1.25f),
                       rng.nextFloatRange(-0.25f, 1.25f),
                       rng.nextFloatRange(-0.25f, 1.25f), rng.nextFloat()};
            v.texcoord = {rng.nextFloatRange(-4, 4),
                          rng.nextFloatRange(-4, 4)};
            v.diffuse = rng.nextFloatRange(0, 1.25f);
        }
        if (shape == 3) {
            // A repeated vertex or a horizontal line: zero area.
            if (rng.nextBool())
                p.v[2] = p.v[0];
            else
                p.v[1].y = p.v[2].y = p.v[0].y;
        }
        p.drawIndex = static_cast<u32>(draws.size());
        draws.push_back(d);

        const u32 primIndex = static_cast<u32>(frame.primitives.size());
        frame.primitives.push_back(p);
        StatRegistry unused;
        std::vector<TileId> tiles =
            PolygonListBuilder(config, unused, nullptr).overlappedTiles(p);
        // Degenerate triangles reach every tile; so, now and then, does
        // a triangle whose bounding box misses the tile.
        if (shape == 3 || rng.nextBool(0.2f)) {
            tiles.clear();
            for (TileId t = 0; t < config.numTiles(); t++)
                tiles.push_back(t);
        }
        for (TileId t : tiles)
            frame.tileLists[t].push_back(
                {primIndex, 0x200000000ull + 64ull * i, 48 + 16 * i});
    }
};

void
expectSameStats(const TileRenderStats &got, const TileRenderStats &want)
{
    EXPECT_EQ(got.primitivesFetched, want.primitivesFetched);
    EXPECT_EQ(got.fragmentsGenerated, want.fragmentsGenerated);
    EXPECT_EQ(got.fragmentsEarlyZKilled, want.fragmentsEarlyZKilled);
    EXPECT_EQ(got.fragmentsShaded, want.fragmentsShaded);
    EXPECT_EQ(got.fragmentsMemoReused, want.fragmentsMemoReused);
    EXPECT_EQ(got.shaderInstructions, want.shaderInstructions);
    EXPECT_EQ(got.texelFetches, want.texelFetches);
    EXPECT_EQ(got.blendOps, want.blendOps);
    EXPECT_EQ(got.parameterBytesRead, want.parameterBytesRead);
}

/** Every packed color of a tile, for a compact failure message. */
std::vector<u32>
packed(const std::vector<Color> &colors)
{
    std::vector<u32> out;
    for (Color c : colors)
        out.push_back(c.packed());
    return out;
}

/** Render @p tile with the fast path and the reference, each with a
 *  logging memo client if @p withMemo, and compare colors, stats and
 *  the memo call streams, and the events the fast path's texel capture
 *  sends with the reference's raw stream through the naive repeat
 *  filter. Returns the reference's stats, and adds the fetches sent as
 *  repeat hits to @p repeatHits if set. */
TileRenderStats
expectTileMatchesReference(const GpuConfig &config,
                           const std::vector<Texture> &textures,
                           const BinnedFrame &frame,
                           const std::vector<DrawCall> &draws, TileId tile,
                           bool withMemo, u64 *repeatHits = nullptr)
{
    MemoLog fastMemo, refMemo;
    std::vector<Color> fastColors, refColors;
    TexelCapture capture;
    const TileRenderStats fast =
        TileRenderer(config, textures, withMemo ? &fastMemo : nullptr)
            .renderTile(tile, frame, draws, Color(12, 34, 56, 78),
                        fastColors, &capture);
    SinkLog fastLog, refLog;
    testutil::ReferenceRepeatFilter refFilter(config, refLog);
    const TileRenderStats ref = testutil::referenceRenderTile(
        config, &refFilter, textures, withMemo ? &refMemo : nullptr, tile,
        frame, draws, Color(12, 34, 56, 78), refColors);
    refFilter.endTile();
    const u64 repeats = capture.emit(fastLog, tile, frame, draws, textures);
    if (repeatHits)
        *repeatHits += repeats;
    expectSameStats(fast, ref);
    EXPECT_EQ(packed(fastColors), packed(refColors));
    EXPECT_EQ(fastLog.calls, refLog.calls);
    EXPECT_EQ(fastMemo.calls, refMemo.calls);
    return ref;
}

/**
 * Every tile of 300 seeded frames, in order, on this one thread: the
 * fast path's per-thread Depth Buffer carries the last tile's values
 * into the next, which its lazy clear must never expose. Returns, per
 * remainder r, how many rasterized spans (a primitive's bounding box
 * clipped to a tile) were 4k + r pixels wide.
 */
std::array<u64, 4>
expectRandomTilesMatchReference(u32 tileWidth, u32 tileHeight,
                                u32 textureCaches)
{
    u64 fragments = 0, reused = 0, killed = 0, repeatHits = 0;
    std::array<u64, 4> spanRemainders{};
    for (u64 seed = 1; seed <= 300; seed++) {
        const OracleFrame f(seed, tileWidth, tileHeight, textureCaches);
        for (bool withMemo : {false, true}) {
            for (TileId tile = 0; tile < f.config.numTiles(); tile++) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " tile "
                             + std::to_string(tile)
                             + (withMemo ? " memo" : ""));
                const TileRenderStats ref = expectTileMatchesReference(
                    f.config, f.textures, f.frame, f.draws, tile, withMemo,
                    &repeatHits);
                fragments += ref.fragmentsGenerated;
                reused += ref.fragmentsMemoReused;
                killed += ref.fragmentsEarlyZKilled;
            }
        }
        const float tw = static_cast<float>(tileWidth);
        for (TileId tile = 0; tile < f.config.numTiles(); tile++) {
            const float tx0 = static_cast<float>(
                tile % f.config.tilesX() * tileWidth);
            for (const PrimRef &ref : f.frame.tileLists[tile]) {
                const Primitive &p = f.frame.primitives[ref.primIndex];
                float minX, minY, maxX, maxY;
                p.bounds(minX, minY, maxX, maxY);
                const float x0 = std::max(std::floor(minX), tx0);
                const float x1 = std::min(std::ceil(maxX), tx0 + tw - 1);
                if (p.signedArea2() != 0 && x0 <= x1)
                    spanRemainders[static_cast<u32>(x1 - x0 + 1) % 4]++;
            }
        }
    }
    // The frames exercised every path.
    EXPECT_GT(fragments, 10000u);
    EXPECT_GT(reused, 0u);
    EXPECT_GT(killed, 0u);
    EXPECT_GT(repeatHits, 0u);
    return spanRemainders;
}

} // namespace

TEST(RasterOracle, RandomTilesMatchTheNaiveReference)
{
    expectRandomTilesMatchReference(16, 16, 4);
}

TEST(RasterOracle, OddTileSizeMatchesTheNaiveReference)
{
    // 13x7 tiles on the 40x24 screen: 4x4 tiles, the right column 1
    // pixel wide on screen and the bottom row 3 high. The kernel steps
    // four pixels at a time, so a 13-pixel row ends in a 1-lane group;
    // spans of every width mod 4 leave 1, 2, 3 or 4 live lanes in the
    // last group. Tiles start at odd pixels, and 3 texture caches make
    // the quad round-robin wrap at a non-power of two.
    const std::array<u64, 4> spans =
        expectRandomTilesMatchReference(13, 7, 3);
    for (u32 r = 0; r < 4; r++)
        EXPECT_GT(spans[r], 0u) << "no span of width 4k + " << r;
}

TEST(RasterOracle, NonFiniteTexcoordsMatchTheNaiveReference)
{
    // A NaN or infinite vertex texcoord interpolates to NaN or
    // infinite uv (inf * 0 and inf - inf give NaN). The sampler reads
    // NaN as texel coordinate 0 and clamps the rest to +-2^30, so no
    // conversion leaves the i32 range, and the lane kernel agrees with
    // the reference on colors, stats and texel addresses.
    GpuConfig config;
    config.scaleResolution(16, 16);
    std::vector<Texture> textures;
    textures.emplace_back(0, 32, 32, TexturePattern::Noise, 3);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    u64 texelFetches = 0;
    for (float bad : {nan, inf, -inf, 6e10f}) {
        for (ShaderKind kind : {ShaderKind::Textured, ShaderKind::TexModulate,
                                ShaderKind::TexLit}) {
            SCOPED_TRACE("texcoord " + std::to_string(bad) + " shader "
                         + std::to_string(static_cast<int>(kind)));
            std::vector<DrawCall> draws(2);
            BinnedFrame frame;
            frame.tileLists.assign(config.numTiles(), {});
            for (u32 i = 0; i < 2; i++) {
                draws[i].state.shader = kind;
                draws[i].state.textureId = 0;
                draws[i].state.depthTest = false;
                Primitive p;
                // Two halves of the tile, the second one mirrored.
                const float x[3] = {0, 16, 0};
                const float y[3] = {0, 0, 16};
                for (u32 k = 0; k < 3; k++) {
                    ShadedVertex &v = p.v[k];
                    v.x = i ? 16 - x[k] : x[k];
                    v.y = i ? 16 - y[k] : y[k];
                    v.invW = 0.5f + 0.25f * k;
                    v.texcoord = {0.1f * k, 0.2f * k};
                    v.diffuse = 0.75f;
                }
                // One bad coordinate per primitive: u on the first, v
                // (and u of another vertex) on the second.
                if (i == 0) {
                    p.v[1].texcoord.x = bad;
                } else {
                    p.v[0].texcoord.y = bad;
                    p.v[2].texcoord.x = -bad;
                }
                p.drawIndex = i;
                frame.primitives.push_back(p);
                frame.tileLists[0].push_back({i, 0x200000000ull, 64});
            }
            const TileRenderStats ref = expectTileMatchesReference(
                config, textures, frame, draws, 0, false);
            texelFetches += ref.texelFetches;
        }
    }
    EXPECT_GT(texelFetches, 0u);
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
