/**
 * @file
 * Pins the tentpole's "allocation-free streaming" claim mechanically:
 * this binary replaces the global operator new/delete with counting
 * wrappers and asserts that the signature hot paths - CRC streaming,
 * the pluggable HashStream, the stack-buffer serializers, the fragment
 * signature, the RE/TE per-tile hooks and the tile renderer - perform
 * zero heap allocations at steady state.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/stats.hh"
#include "crc/hashes.hh"
#include "gpu/binning.hh"
#include "gpu/raster.hh"
#include "re/rendering_elimination.hh"
#include "te/transaction_elimination.hh"

namespace
{

std::size_t gAllocCount = 0;

/** Allocations observed since construction. */
struct AllocProbe
{
    std::size_t start = gAllocCount;
    std::size_t count() const { return gAllocCount - start; }
};

} // namespace

void *
operator new(std::size_t size)
{
    gAllocCount++;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    gAllocCount++;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace regpu;

TEST(AllocFree, CrcStreamAndCombine)
{
    u8 data[144];
    for (std::size_t i = 0; i < sizeof(data); i++)
        data[i] = static_cast<u8>(i * 37 + 11);

    CrcTables::instance(); // build the LUTs outside the probe

    AllocProbe probe;
    Crc32Stream stream;
    stream.update({data, 20});
    stream.update({data + 20, 124});
    stream.putU32(0x12345678u);
    stream.putF32(2.5f);
    u32 whole = crc32Tabular({data, 144});
    u32 combined = crc32Combine(crc32Tabular({data, 100}),
                                crc32Tabular({data + 100, 44}), 44);
    EXPECT_EQ(probe.count(), 0u);
    EXPECT_EQ(whole, combined);
    EXPECT_NE(stream.value(), 0u);
}

TEST(AllocFree, HashStreamAllKinds)
{
    u8 data[77];
    for (std::size_t i = 0; i < sizeof(data); i++)
        data[i] = static_cast<u8>(i * 13 + 5);

    CrcTables::instance();

    for (HashKind kind : {HashKind::Crc32, HashKind::XorFold,
                          HashKind::AddFold, HashKind::Fnv1a,
                          HashKind::Trunc4}) {
        AllocProbe probe;
        HashStream stream(kind);
        stream.update({data, 33});
        stream.update({data + 33, 44});
        u32 sig = stream.finalize();
        u32 folded = hashCombine(kind, 0x1111u, sig, 77);
        EXPECT_EQ(probe.count(), 0u) << hashKindName(kind);
        (void)folded;
    }
}

namespace
{

/** A textured drawcall with one triangle (built outside the probes). */
DrawCall
makeDraw()
{
    DrawCall draw;
    draw.state.shader = ShaderKind::Textured;
    draw.state.textureId = 0;
    draw.layout.hasTexcoord = true;
    draw.vertices.resize(3);
    draw.vertices[0].position = {0, 0, 0};
    draw.vertices[1].position = {8, 0, 0};
    draw.vertices[2].position = {0, 8, 0};
    return draw;
}

} // namespace

TEST(AllocFree, StackBufferSerializers)
{
    DrawCall draw = makeDraw();
    AllocProbe probe;
    u8 uniforms[UniformSet::maxSerializedBytes];
    std::size_t uLen = draw.state.uniforms.serializeInto(uniforms);
    u8 attrs[maxTriangleAttributeBytes];
    std::size_t aLen = serializeTriangleAttributesInto(draw, 0, attrs);
    EXPECT_EQ(probe.count(), 0u);
    EXPECT_EQ(uLen, 64u);       // MVP only
    EXPECT_EQ(aLen, 3u * 2 * 16); // position + texcoord per vertex
}

TEST(AllocFree, FragmentSignature)
{
    DrawCall draw = makeDraw();
    CrcTables::instance();
    AllocProbe probe;
    u32 sig = TileRenderer::fragmentSignature(
        draw, Vec4{1, 1, 1, 1}, Vec2{0.25f, 0.75f}, 1.0f);
    EXPECT_EQ(probe.count(), 0u);
    EXPECT_NE(sig, 0u);
}

TEST(AllocFree, RenderTileSteadyState)
{
    // The Depth Buffer, the edge-function rows and the texel repeat
    // filter are per-thread scratch, and the color vector and the texel
    // capture keep their capacity, so once warm a tile renders without
    // touching the heap, with a capture or without.
    GpuConfig config;
    config.scaleResolution(64, 64);
    std::vector<Texture> textures;
    textures.emplace_back(0, 32, 32, TexturePattern::Checker, 3);
    std::vector<DrawCall> draws(2, makeDraw());
    draws[1].state.shader = ShaderKind::Flat;
    draws[1].state.depthTest = false;
    BinnedFrame frame;
    frame.tileLists.assign(config.numTiles(), {});
    for (u32 d = 0; d < 2; d++) {
        Primitive p;
        p.v[0].x = 1; p.v[0].y = 1;
        p.v[1].x = 15; p.v[1].y = 2;
        p.v[2].x = 3; p.v[2].y = 14;
        for (ShadedVertex &v : p.v)
            v.texcoord = {v.x / 16, v.y / 16};
        p.drawIndex = d;
        frame.primitives.push_back(p);
        frame.tileLists[0].push_back({d, 0x200000000ull, 64});
    }
    TileRenderer renderer(config, textures);
    std::vector<Color> colors, capturedColors;
    TexelCapture capture;
    renderer.renderTile(0, frame, draws, Color(0, 0, 0), colors);
    renderer.renderTile(0, frame, draws, Color(0, 0, 0), capturedColors,
                        &capture);

    AllocProbe probe;
    TileRenderStats ts =
        renderer.renderTile(0, frame, draws, Color(0, 0, 0), colors);
    const TileRenderStats captured = renderer.renderTile(
        0, frame, draws, Color(0, 0, 0), capturedColors, &capture);
    EXPECT_EQ(probe.count(), 0u);
    EXPECT_GT(ts.fragmentsShaded, 0u);
    EXPECT_GT(ts.texelFetches, 0u);
    // Capturing changes neither the colors nor the work.
    EXPECT_TRUE(captured == ts);
    EXPECT_TRUE(capturedColors == colors);
    EXPECT_GT(capture.texel.size(), 0u);
}

TEST(AllocFree, TransactionEliminationTileHashSteadyState)
{
    GpuConfig config;
    config.scaleResolution(64, 64);
    StatRegistry stats;
    TransactionElimination te(config, stats);
    std::vector<Color> colors(
        static_cast<std::size_t>(config.tileWidth) * config.tileHeight,
        Color(10, 20, 30));
    // Warm up three frames: the first call of each stat creates its
    // registry entry, and te.flushesEliminated needs a valid
    // comparison frame (two frames back under double buffering).
    for (u64 f = 0; f < 3; f++) {
        te.frameBegin(f, true);
        te.shouldFlushTile(0, colors);
        te.shouldFlushTile(1, colors);
        te.frameEnd();
    }

    te.frameBegin(3, true);
    AllocProbe probe;
    te.shouldFlushTile(0, colors);
    te.shouldFlushTile(1, colors);
    EXPECT_EQ(probe.count(), 0u);
    te.frameEnd();
}

TEST(AllocFree, RenderingEliminationProducersSteadyState)
{
    GpuConfig config;
    config.scaleResolution(64, 64);
    StatRegistry stats;
    RenderingElimination re(config, stats);
    DrawCall draw = makeDraw();
    Primitive prim;
    prim.firstVertex = 0;
    std::vector<TileId> tiles = {0, 1, 2};
    // Warm up: stat entries, signature-unit bitmap capacity.
    re.frameBegin(0, true);
    re.onDrawcallConstants(0, draw);
    re.onPrimitiveBinned(prim, draw, tiles);
    re.frameEnd();

    re.frameBegin(1, true);
    AllocProbe probe;
    re.onDrawcallConstants(0, draw);
    re.onPrimitiveBinned(prim, draw, tiles);
    re.onPrimitiveBinned(prim, draw, tiles);
    EXPECT_EQ(probe.count(), 0u);
    re.frameEnd();
}
