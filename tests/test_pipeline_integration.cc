/**
 * @file
 * Cross-module integration tests of the full functional pipeline:
 * golden-image checks, baseline invariants, hook plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "crc/crc32.hh"
#include "gpu/pipeline.hh"
#include "scene/mesh_gen.hh"
#include "te/transaction_elimination.hh"
#include "timing/memsystem.hh"

using namespace regpu;

namespace
{

struct PipeFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;
    std::unique_ptr<Scene> scene;

    PipeFixture()
    {
        config.scaleResolution(96, 64);
        scene = std::make_unique<Scene>("pipe", config);
    }

    void
    addCheckerQuad()
    {
        u32 tex = scene->addTexture(
            Texture(0, 64, 64, TexturePattern::Checker, 5));
        SceneObject o;
        o.name = "quad";
        o.mesh = makeQuad(64, 48);
        o.shader = ShaderKind::Textured;
        o.textureId = static_cast<i32>(tex);
        o.depthTest = false;
        o.animate = [](u64) {
            Pose p;
            p.position = {48, 32, 0.5f};
            return p;
        };
        scene->addObject(std::move(o));
    }

    /** CRC of the whole front buffer (golden-image hash). */
    u32
    frontHash(GraphicsPipeline &pipe)
    {
        std::vector<u8> bytes;
        for (u32 y = 0; y < config.screenHeight; y++) {
            for (u32 x = 0; x < config.screenWidth; x++) {
                u32 p = pipe.frameBuffer().frontPixel(x, y).packed();
                bytes.push_back(static_cast<u8>(p));
                bytes.push_back(static_cast<u8>(p >> 8));
                bytes.push_back(static_cast<u8>(p >> 16));
                bytes.push_back(static_cast<u8>(p >> 24));
            }
        }
        return crc32Tabular(bytes);
    }

    /**
     * A counter-clockwise quad over the pixel rectangle [x0, x1] x
     * [y0, y1] at window depth @p z, drawn with an identity MVP and
     * no depth test. Texcoords run from (0, 0) to (1, 1).
     */
    DrawCall
    pixelQuad(ShaderKind shader, float x0, float y0, float x1, float y1,
              float z = 0.5f) const
    {
        auto vertex = [&](float x, float y, Vec2 uv) {
            Vertex v;
            v.position = {x / (config.screenWidth * 0.5f) - 1.0f,
                          y / (config.screenHeight * 0.5f) - 1.0f,
                          2.0f * z - 1.0f};
            v.texcoord = uv;
            return v;
        };
        const Vertex a = vertex(x0, y0, {0, 0});
        const Vertex b = vertex(x1, y0, {1, 0});
        const Vertex c = vertex(x1, y1, {1, 1});
        const Vertex d = vertex(x0, y1, {0, 1});
        DrawCall draw;
        draw.state.shader = shader;
        draw.state.depthTest = false;
        draw.layout = {true, true, true};
        draw.vertices = {a, b, c, a, c, d};
        return draw;
    }

    /** Whether @p colors, a row-major tile, equal the on-screen pixels
     *  of @p tile in @p surface, a row-major screen. */
    bool
    tileMatches(const std::vector<Color> &surface, TileId tile,
                const std::vector<Color> &colors) const
    {
        const u32 x0 = tile % config.tilesX() * config.tileWidth;
        const u32 y0 = tile / config.tilesX() * config.tileHeight;
        for (u32 y = y0; y < std::min(y0 + config.tileHeight,
                                      config.screenHeight); y++)
            for (u32 x = x0; x < std::min(x0 + config.tileWidth,
                                          config.screenWidth); x++)
                if (surface[y * config.screenWidth + x]
                    != colors[(y - y0) * config.tileWidth + (x - x0)])
                    return false;
        return true;
    }

    /** The front surface, row-major: right after renderFrame, the
     *  colors of the frame just rendered. */
    std::vector<Color>
    frontSurface(GraphicsPipeline &pipe) const
    {
        std::vector<Color> surface;
        for (u32 y = 0; y < config.screenHeight; y++)
            for (u32 x = 0; x < config.screenWidth; x++)
                surface.push_back(pipe.frameBuffer().frontPixel(x, y));
        return surface;
    }

    /** The record tests' draws, by index: a textured quad, a
     *  vertex-colored quad, a lit textured quad, a near and a far
     *  depth-tested quad over the same pixels, and a translucent flat
     *  overlay. */
    enum { textured, vertexColored, lit, nearQuad, farQuad, overlay };

    /** The record tests' textures: the textured quad's and the lit
     *  quad's. */
    static std::vector<Texture>
    recordTextures()
    {
        std::vector<Texture> textures;
        textures.emplace_back(0, 64, 64, TexturePattern::Checker, 5);
        textures.emplace_back(1, 32, 32, TexturePattern::Noise, 3);
        return textures;
    }

    /** The record tests' unmutated frame. Columns 40-47 and 88-95
     *  show the clear color. */
    FrameCommands
    recordBaseFrame() const
    {
        FrameCommands base;
        base.clearColor = Color(12, 12, 24);
        base.draws.push_back(pixelQuad(ShaderKind::Textured, 0, 0, 40, 32));
        base.draws.push_back(
            pixelQuad(ShaderKind::VertexColor, 48, 0, 88, 32));
        base.draws.push_back(pixelQuad(ShaderKind::TexLit, 0, 32, 40, 64));
        base.draws.push_back(pixelQuad(ShaderKind::Flat, 48, 32, 88, 64,
                                       0.25f));
        base.draws.push_back(pixelQuad(ShaderKind::Flat, 48, 32, 88, 64,
                                       0.75f));
        base.draws.push_back(pixelQuad(ShaderKind::Flat, 8, 8, 56, 56));
        base.draws[textured].state.textureId = 0;
        // pixelQuad's vertices are corners a, b, c, a, c, d.
        const Vec4 corners[] = {{1, 0, 0, 1}, {0, 1, 0, 1}, {0, 0, 1, 1},
                                {1, 1, 1, 1}};
        const int cornerOf[] = {0, 1, 2, 0, 2, 3};
        for (int i = 0; i < 6; i++)
            base.draws[vertexColored].vertices[i].color =
                corners[cornerOf[i]];
        base.draws[lit].state.textureId = 1;
        for (int d : {nearQuad, farQuad})
            base.draws[d].state.depthTest = true;
        base.draws[nearQuad].state.uniforms.tint = {1, 0, 0, 1};
        base.draws[farQuad].state.uniforms.tint = {0, 0, 1, 1};
        base.draws[overlay].state.uniforms.tint = {0.2f, 0.4f, 0.6f, 0.5f};
        return base;
    }

    using Mutation =
        std::pair<const char *, std::function<void(FrameCommands &)>>;

    /** One mutation of recordBaseFrame per input of a tile record's
     *  key. */
    static std::vector<Mutation>
    keyMutations()
    {
        return {
            {"vertex position", [](FrameCommands &c) {
                 c.draws[textured].vertices[1].position.x += 0.25f;
             }},
            {"texcoord", [](FrameCommands &c) {
                 c.draws[textured].vertices[0].texcoord = {0.3f, 0.2f};
             }},
            {"vertex color", [](FrameCommands &c) {
                 c.draws[vertexColored].vertices[0].color = {0, 0, 0, 1};
             }},
            {"diffuse", [](FrameCommands &c) {
                 c.draws[lit].state.uniforms.lightDir = {1, 0, 1};
             }},
            {"depth under a depth test", [](FrameCommands &c) {
                 for (Vertex &v : c.draws[nearQuad].vertices)
                     v.position.z = 0.8f;
             }},
            {"tint", [](FrameCommands &c) {
                 c.draws[overlay].state.uniforms.tint = {0.9f, 0.1f, 0.1f,
                                                         0.5f};
             }},
            {"blendMode", [](FrameCommands &c) {
                 c.draws[overlay].state.blendMode = BlendMode::AlphaBlend;
             }},
            {"depthWrite", [](FrameCommands &c) {
                 c.draws[nearQuad].state.depthWrite = false;
             }},
            {"textureId", [](FrameCommands &c) {
                 c.draws[textured].state.textureId = 1;
             }},
            {"clear color", [](FrameCommands &c) {
                 c.clearColor = Color(200, 0, 0);
             }},
        };
    }

    /** A frame of the record tests: its commands, the input mutated
     *  ("" if none), and whether it repeats the previous frame. */
    struct RecordStep
    {
        FrameCommands commands;
        std::string what;
        bool unchanged;
    };

    /** Frames 0-2 draw the base frame, frame 2 unchanged. Then per
     *  mutation: the mutated frame, the base frame, and the base frame
     *  unchanged. */
    std::vector<RecordStep>
    recordSteps(const std::vector<Mutation> &mutations) const
    {
        const FrameCommands base = recordBaseFrame();
        std::vector<RecordStep> steps(3, {base, "", true});
        for (const auto &[what, mutate] : mutations) {
            steps.push_back({base, what, false});
            mutate(steps.back().commands);
            steps.push_back({base, "", false});
            steps.push_back({base, "", true});
        }
        return steps;
    }
};

/** A MemTraceSink that logs every call, to compare event streams. */
struct LoggingSink : MemTraceSink
{
    struct Call
    {
        char kind = 0;
        Addr addr = 0;
        u32 arg = 0;             //!< bytes, or a texture-cache index
        std::array<Addr, 4> texels{};
        bool operator==(const Call &) const = default;
    };
    std::vector<Call> log;

    void vertexFetch(Addr a, u32 b) override { log.push_back({'v', a, b}); }
    void parameterWrite(Addr a, u32 b) override
    { log.push_back({'w', a, b}); }
    void parameterRead(Addr a, u32 b) override { log.push_back({'r', a, b}); }
    void texelFetch(u32 cache, Addr a) override
    { log.push_back({'t', a, cache}); }
    void
    texelFetches(u32 cache, std::span<const Addr> addrs) override
    {
        Call call{'T', addrs.size(), cache};
        EXPECT_LE(addrs.size(), call.texels.size());
        std::copy_n(addrs.begin(), std::min(addrs.size(), call.texels.size()),
                    call.texels.begin());
        log.push_back(call);
    }
    void colorFlush(Addr a, u32 b) override { log.push_back({'f', a, b}); }
    void colorRead(Addr a, u32 b) override { log.push_back({'c', a, b}); }
};

} // namespace

TEST_F(PipeFixture, RenderingIsReproducible)
{
    addCheckerQuad();
    GraphicsPipeline a(config, stats, nullptr, scene->textures());
    GraphicsPipeline b(config, stats, nullptr, scene->textures());
    a.renderFrame(scene->emitFrame(0));
    b.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(frontHash(a), frontHash(b));
}

TEST_F(PipeFixture, ClearColorFillsUncoveredTiles)
{
    scene->setClearColor({10, 20, 30, 255});
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(pipe.frameBuffer().frontPixel(0, 0), Color(10, 20, 30));
    EXPECT_EQ(pipe.frameBuffer().frontPixel(95, 63), Color(10, 20, 30));
}

TEST_F(PipeFixture, QuadLandsWhereExpected)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    // Quad spans x in [16,80), y in [8,56): inside is textured,
    // outside is the clear color.
    Color inside = pipe.frameBuffer().frontPixel(48, 32);
    Color outside = pipe.frameBuffer().frontPixel(2, 2);
    EXPECT_NE(inside, outside);
    EXPECT_EQ(outside, Color(12, 12, 24)); // default clear color
}

TEST_F(PipeFixture, FrameResultCountsAreConsistent)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    FrameResult r = pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(r.tiles.size(), config.numTiles());
    EXPECT_EQ(r.verticesShaded, 6u);
    EXPECT_EQ(r.trianglesAssembled, 2u);
    u64 frags = 0;
    for (const TileOutcome &t : r.tiles)
        frags += t.stats.fragmentsGenerated;
    EXPECT_EQ(frags, 64u * 48); // exact quad coverage
}

TEST_F(PipeFixture, BaselineRendersAndFlushesEverything)
{
    addCheckerQuad();
    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    FrameResult r = pipe.renderFrame(scene->emitFrame(0));
    for (const TileOutcome &t : r.tiles) {
        EXPECT_TRUE(t.rendered);
        EXPECT_TRUE(t.flushed);
    }
}

TEST_F(PipeFixture, MemTrafficFlowsThroughHierarchy)
{
    addCheckerQuad();
    MemSystem mem(config);
    GraphicsPipeline pipe(config, stats, &mem, scene->textures());
    pipe.renderFrame(scene->emitFrame(0));
    const DramTraffic &t = mem.dram().traffic();
    EXPECT_GT(t[TrafficClass::Colors], 0u);
    EXPECT_GT(t[TrafficClass::Texels], 0u);
    EXPECT_GT(t[TrafficClass::Primitives], 0u);
    EXPECT_GT(t[TrafficClass::Geometry], 0u);
    // Color flushes: every tile flushed once (full screen x 4 B).
    EXPECT_EQ(t[TrafficClass::Colors],
              static_cast<u64>(config.screenWidth)
              * config.screenHeight * 4);
}

TEST_F(PipeFixture, HooksObserveDrawcallsAndPrimitives)
{
    addCheckerQuad();

    struct CountingHooks : PipelineHooks
    {
        u32 frames = 0, draws = 0, prims = 0, tileQueries = 0;
        void frameBegin(u64, bool) override { frames++; }
        void onDrawcallConstants(u32, const DrawCall &) override
        { draws++; }
        void onPrimitiveBinned(const Primitive &, const DrawCall &,
                               const std::vector<TileId> &) override
        { prims++; }
        bool shouldRenderTile(TileId) override
        { tileQueries++; return true; }
    } hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    EXPECT_EQ(hooks.frames, 1u);
    EXPECT_EQ(hooks.draws, 1u);
    EXPECT_EQ(hooks.prims, 2u);
    EXPECT_EQ(hooks.tileQueries, config.numTiles());
}

TEST_F(PipeFixture, RenderDecisionIsOneCountedCallPerTile)
{
    // On both schedules the render decision is the counted
    // shouldRenderTile: once per tile per frame, in tile order, on the
    // thread that called renderFrame. The pool's workers ask the
    // technique nothing about rendering.
    addCheckerQuad();

    struct DecisionLog : PipelineHooks
    {
        u64 frame = 0;
        std::vector<TileId> asked;
        std::vector<std::thread::id> askedOn;
        std::atomic<u64> queries{0};

        /** From frame 2 on, every third tile is skipped. */
        bool
        render(TileId tile) const
        {
            return frame < 2 || tile % 3 != 1;
        }

        void
        frameBegin(u64 f, bool) override
        {
            frame = f;
            asked.clear();
            askedOn.clear();
        }
        bool
        shouldRenderTile(TileId tile) override
        {
            asked.push_back(tile);
            askedOn.push_back(std::this_thread::get_id());
            return render(tile);
        }
        bool
        queryRenderTile(TileId tile) override
        {
            queries++;
            return render(tile);
        }
    };

    const u32 numTiles = config.numTiles();
    std::vector<TileId> tileOrder(numTiles);
    std::iota(tileOrder.begin(), tileOrder.end(), TileId{0});
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("tile-jobs " + std::to_string(jobs));
        DecisionLog hooks;
        GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
        pipe.setHooks(&hooks);
        pipe.setTileJobs(jobs);
        for (u64 f = 0; f < 4; f++) {
            SCOPED_TRACE("frame " + std::to_string(f));
            const FrameResult r = pipe.renderFrame(scene->emitFrame(f));
            EXPECT_EQ(hooks.asked, tileOrder);
            EXPECT_EQ(std::count(hooks.askedOn.begin(), hooks.askedOn.end(),
                                 std::this_thread::get_id()),
                      std::ptrdiff_t{numTiles});
            for (TileId t = 0; t < numTiles; t++)
                EXPECT_EQ(r.tiles[t].rendered, hooks.render(t))
                    << "tile " << t;
        }
        EXPECT_EQ(hooks.queries.load(), 0u);
    }
}

TEST_F(PipeFixture, SkippingTilePreservesOldBackBufferContent)
{
    addCheckerQuad();

    struct SkipAllAfterFirst : PipelineHooks
    {
        u64 frame = 0;
        void frameBegin(u64 f, bool) override { frame = f; }
        bool shouldRenderTile(TileId) override { return frame < 2; }
    } hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    u32 golden = frontHash(pipe);
    pipe.renderFrame(scene->emitFrame(1));
    pipe.renderFrame(scene->emitFrame(2)); // all tiles skipped
    // Static scene: the skipped frame's displayed output must equal
    // the rendered frame 0 image.
    EXPECT_EQ(frontHash(pipe), golden);
}

TEST_F(PipeFixture, GroundTruthShadowRenderDetectsWrongSkips)
{
    // Skip a tile that actually changed: equalColors must be false
    // and the false-positive counter must fire.
    u32 tex = scene->addTexture(
        Texture(0, 64, 64, TexturePattern::Checker, 5));
    SceneObject mover;
    mover.name = "mover";
    mover.mesh = makeQuad(16, 16, 0.5f);
    mover.shader = ShaderKind::Textured;
    mover.textureId = static_cast<i32>(tex);
    mover.depthTest = false;
    mover.animate = [](u64 frame) {
        Pose p;
        p.position = {20.0f + 8.0f * frame, 20, 0.2f};
        return p;
    };
    scene->addObject(std::move(mover));

    struct SkipEverything : PipelineHooks
    {
        u64 frame = 0;
        void frameBegin(u64 f, bool) override { frame = f; }
        bool shouldRenderTile(TileId) override { return frame == 0; }
    } hooks;

    GraphicsPipeline pipe(config, stats, nullptr, scene->textures());
    pipe.setHooks(&hooks);
    pipe.renderFrame(scene->emitFrame(0));
    FrameResult r = pipe.renderFrame(scene->emitFrame(1), true);
    bool anyWrong = false;
    for (const TileOutcome &t : r.tiles)
        anyWrong |= !t.rendered && !t.equalColors;
    EXPECT_TRUE(anyWrong);
    EXPECT_GT(stats.counter("re.falsePositives"), 0u);
}

TEST_F(PipeFixture, RasterCountersAreEachFramesTileSums)
{
    // The merge sums each tile's stats and outcome; renderFrame charges
    // the sums once per frame and returns them in FrameResult::totals.
    // Every outcome occurs: rendered and
    // flushed, rendered with the flush elided, eliminated, and
    // eliminated although its colors changed (a false positive).
    u32 tex = scene->addTexture(
        Texture(0, 64, 64, TexturePattern::Checker, 5));
    SceneObject mover;
    mover.name = "mover";
    mover.mesh = makeQuad(24, 24, 0.5f);
    mover.shader = ShaderKind::Textured;
    mover.textureId = static_cast<i32>(tex);
    mover.animate = [](u64 frame) {
        Pose p;
        p.position = {30.0f + 6.0f * frame, 30, 0.2f};
        return p;
    };
    scene->addObject(std::move(mover));

    struct SkipAndElide : PipelineHooks
    {
        u64 frame = 0;
        void frameBegin(u64 f, bool) override { frame = f; }
        bool shouldRenderTile(TileId tile) override
        { return frame == 0 || tile % 3 != 1; }
        bool shouldFlushTile(TileId tile, const std::vector<Color> &) override
        { return tile % 4 != 0; }
    };

    // Each counter with the FrameTotals field that FrameResult::totals
    // returns for it.
    const std::vector<std::pair<std::string, u64 FrameTotals::*>> keys = {
        {"raster.fragmentsGenerated", &FrameTotals::fragmentsGenerated},
        {"raster.fragmentsEarlyZKilled",
         &FrameTotals::fragmentsEarlyZKilled},
        {"raster.fragmentsShaded", &FrameTotals::fragmentsShaded},
        {"raster.fragmentsMemoReused", &FrameTotals::fragmentsMemoReused},
        {"raster.shaderInstructions", &FrameTotals::shaderInstructions},
        {"raster.texelFetches", &FrameTotals::texelFetches},
        {"raster.blendOps", &FrameTotals::blendOps},
        {"raster.primitivesFetched", &FrameTotals::primitivesFetched},
        {"raster.tilesRendered", &FrameTotals::tilesRendered},
        {"raster.tilesFlushed", &FrameTotals::tilesFlushed},
        {"raster.tileFlushesEliminated",
         &FrameTotals::tileFlushesEliminated},
        {"raster.tilesEliminated", &FrameTotals::tilesEliminated},
        {"re.falsePositives", &FrameTotals::falsePositives}};
    // Every field of FrameTotals is in the list.
    static_assert(sizeof(FrameTotals) == 13 * sizeof(u64));
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("tile-jobs " + std::to_string(jobs));
        StatRegistry reg;
        SkipAndElide hooks;
        GraphicsPipeline pipe(config, reg, nullptr, scene->textures());
        pipe.setHooks(&hooks);
        pipe.setTileJobs(jobs);
        for (u64 f = 0; f < 4; f++) {
            SCOPED_TRACE("frame " + std::to_string(f));
            std::map<std::string, u64> before;
            for (const auto &[k, field] : keys)
                before[k] = reg.counter(k);
            const FrameResult r = pipe.renderFrame(scene->emitFrame(f));

            std::map<std::string, u64> sums;
            for (const TileOutcome &t : r.tiles) {
                const TileRenderStats &ts = t.stats;
                sums["raster.fragmentsGenerated"] += ts.fragmentsGenerated;
                sums["raster.fragmentsEarlyZKilled"] +=
                    ts.fragmentsEarlyZKilled;
                sums["raster.fragmentsShaded"] += ts.fragmentsShaded;
                sums["raster.fragmentsMemoReused"] += ts.fragmentsMemoReused;
                sums["raster.shaderInstructions"] += ts.shaderInstructions;
                sums["raster.texelFetches"] += ts.texelFetches;
                sums["raster.blendOps"] += ts.blendOps;
                sums["raster.primitivesFetched"] += ts.primitivesFetched;
                sums["raster.tilesRendered"] += t.rendered;
                sums["raster.tilesFlushed"] += t.rendered && t.flushed;
                sums["raster.tileFlushesEliminated"] +=
                    t.rendered && !t.flushed;
                sums["raster.tilesEliminated"] += !t.rendered;
                sums["re.falsePositives"] += !t.rendered && !t.equalColors;
            }
            for (const auto &[k, field] : keys) {
                EXPECT_EQ(reg.counter(k) - before[k], sums[k]) << k;
                EXPECT_EQ(r.totals.*field, sums[k]) << k;
            }
        }
        for (const char *outcome :
             {"raster.tilesFlushed", "raster.tileFlushesEliminated",
              "raster.tilesEliminated", "re.falsePositives"})
            EXPECT_GT(reg.counter(outcome), 0u) << outcome;
    }

    // Baseline never eliminates a tile or a flush: those keys must not
    // exist, as they never did with per-tile charges.
    StatRegistry baseline;
    GraphicsPipeline pipe(config, baseline, nullptr, scene->textures());
    for (u64 f = 0; f < 3; f++)
        pipe.renderFrame(scene->emitFrame(f));
    const auto &counters = baseline.allCounters();
    EXPECT_TRUE(counters.contains("raster.tilesRendered"));
    EXPECT_TRUE(counters.contains("raster.tilesFlushed"));
    EXPECT_FALSE(counters.contains("raster.tilesEliminated"));
    EXPECT_FALSE(counters.contains("raster.tileFlushesEliminated"));
    EXPECT_FALSE(counters.contains("re.falsePositives"));
}

TEST_F(PipeFixture, SkippedTilesGroundTruthMatchesAFreshRender)
{
    // A skipped tile's ground truth comes from its record of the last
    // render when its inputs are unchanged, else from a shadow render.
    // Either way equalColors must say whether a fresh render of the
    // tile, with no memory sink, matches the Back Buffer as it was
    // before the frame. Every tile is skipped from frame 2 on. The
    // scene then changes one input of the record's key at a time,
    // reverts it, and stays unchanged for a frame, so a key missing
    // that input serves the reverted colors and fails the check.
    struct SkipFromFrame2 : PipelineHooks
    {
        u64 frame = 0;
        void frameBegin(u64 f, bool) override { frame = f; }
        bool shouldRenderTile(TileId) override { return frame < 2; }
    };

    const std::vector<Texture> textures = recordTextures();
    const std::vector<RecordStep> steps = recordSteps(keyMutations());

    const u32 numTiles = config.numTiles();
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("tile-jobs " + std::to_string(jobs));
        SkipFromFrame2 hooks;
        StatRegistry reg;
        GraphicsPipeline pipe(config, reg, nullptr, textures);
        pipe.setHooks(&hooks);
        pipe.setTileJobs(jobs);
        std::vector<std::vector<Color>> lastFresh(numTiles);
        for (u64 f = 0; f < steps.size(); f++) {
            const RecordStep &step = steps[f];
            SCOPED_TRACE("frame " + std::to_string(f) + " " + step.what);
            const std::vector<Color> back = pipe.frameBuffer().backSurface();
            const FrameResult r = pipe.renderFrame(step.commands);
            if (f < 2) {
                EXPECT_EQ(r.groundTruthFromRecord, 0u);
                continue;
            }
            u32 changed = 0;
            for (TileId t = 0; t < numTiles; t++) {
                ASSERT_FALSE(r.tiles[t].rendered);
                std::vector<Color> fresh;
                TileRenderer(config, nullptr, textures)
                    .renderTile(t, r.binned, step.commands.draws,
                                step.commands.clearColor, fresh);
                EXPECT_EQ(r.tiles[t].equalColors,
                          tileMatches(back, t, fresh))
                    << "tile " << t;
                changed += fresh != lastFresh[t];
                lastFresh[t] = std::move(fresh);
            }
            if (step.unchanged) {
                EXPECT_EQ(r.groundTruthFromRecord, numTiles);
            }
            if (!step.what.empty()) {
                EXPECT_GT(changed, 0u);
            }
        }
        EXPECT_EQ(reg.counter("raster.tilesEliminated"),
                  (steps.size() - 2) * numTiles);
    }
}

TEST_F(PipeFixture, RenderedTilesFromRecordsMatchAFreshRender)
{
    // A pipeline without a memo client serves a rendered tile whose
    // inputs equal its record's from the record: its colors and stats,
    // and its memory events replayed with this frame's Parameter Buffer
    // addresses. Every rendered tile must match a fresh render into a
    // logging sink: its colors on the front surface, its
    // TileRenderStats, and its slice of the pipeline's memory events.
    // The frames are the key mutations of
    // SkippedTilesGroundTruthMatchesAFreshRender, then a Parameter
    // Buffer shift: the textured quad gains a small triangle in tile
    // 0, so every later primitive's pbAddr moves while every other
    // tile's key stays equal. The shift is reverted and repeated once
    // unchanged, too.
    const std::vector<Texture> textures = recordTextures();
    std::vector<Mutation> mutations = keyMutations();
    const DrawCall extra = pixelQuad(ShaderKind::Textured, 2, 2, 10, 10);
    mutations.push_back(
        {"Parameter Buffer shift", [&](FrameCommands &c) {
             std::vector<Vertex> &v = c.draws[textured].vertices;
             v.insert(v.end(), extra.vertices.begin(),
                      extra.vertices.begin() + 3);
         }});
    const std::vector<RecordStep> steps = recordSteps(mutations);
    const std::string shift = mutations.back().first;

    const u32 numTiles = config.numTiles();
    for (bool withTe : {false, true}) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(withTe ? "TE" : "no hooks")
                         + ", tile-jobs " + std::to_string(jobs));
            StatRegistry reg;
            LoggingSink sink;
            TransactionElimination te(config, reg);
            GraphicsPipeline pipe(config, reg, &sink, textures);
            if (withTe)
                pipe.setHooks(&te);
            pipe.setTileJobs(jobs);
            std::vector<std::vector<PrimRef>> lastLists;
            for (u64 f = 0; f < steps.size(); f++) {
                const RecordStep &step = steps[f];
                SCOPED_TRACE("frame " + std::to_string(f) + " "
                             + step.what);
                std::vector<Addr> flushAddr(numTiles);
                for (TileId t = 0; t < numTiles; t++)
                    flushAddr[t] = pipe.frameBuffer().tileAddr(t);
                sink.log.clear();
                const FrameResult r = pipe.renderFrame(step.commands);
                const std::vector<Color> front = frontSurface(pipe);

                // Geometry's events come first; then each tile's render
                // and, if flushed, its flush.
                std::size_t pos = 0;
                while (pos < sink.log.size()
                       && (sink.log[pos].kind == 'v'
                           || sink.log[pos].kind == 'w'))
                    pos++;
                for (TileId t = 0; t < numTiles; t++) {
                    ASSERT_TRUE(r.tiles[t].rendered);
                    LoggingSink freshSink;
                    std::vector<Color> fresh;
                    const TileRenderStats freshStats =
                        TileRenderer(config, &freshSink, textures)
                            .renderTile(t, r.binned, step.commands.draws,
                                        step.commands.clearColor, fresh);
                    EXPECT_TRUE(tileMatches(front, t, fresh))
                        << "tile " << t;
                    EXPECT_TRUE(r.tiles[t].stats == freshStats)
                        << "tile " << t;
                    const std::size_t n = freshSink.log.size();
                    ASSERT_LE(pos + n, sink.log.size()) << "tile " << t;
                    EXPECT_TRUE(std::equal(freshSink.log.begin(),
                                           freshSink.log.end(),
                                           sink.log.begin() + pos))
                        << "tile " << t << ": " << n << " events";
                    pos += n;
                    if (r.tiles[t].flushed) {
                        ASSERT_LT(pos, sink.log.size()) << "tile " << t;
                        const LoggingSink::Call flush{
                            'f', flushAddr[t],
                            pipe.frameBuffer().tileBytes(t)};
                        EXPECT_TRUE(sink.log[pos] == flush) << "tile " << t;
                        pos++;
                    }
                }
                EXPECT_EQ(pos, sink.log.size());

                if (f == 0) {
                    EXPECT_EQ(r.renderedFromRecord, 0u);
                } else if (step.unchanged) {
                    EXPECT_EQ(r.renderedFromRecord, numTiles);
                }
                if (!step.what.empty()) {
                    EXPECT_LT(r.renderedFromRecord, numTiles);
                }
                if (step.what == shift) {
                    // Only tile 0 lists the new triangle; every other
                    // tile is served from its record, and some of
                    // them read their primitives at moved addresses.
                    EXPECT_EQ(r.renderedFromRecord, numTiles - 1);
                    u32 moved = 0;
                    for (TileId t = 1; t < numTiles; t++)
                        for (std::size_t i = 0;
                             i < r.binned.tileLists[t].size(); i++)
                            moved += r.binned.tileLists[t][i].pbAddr
                                != lastLists[t][i].pbAddr;
                    EXPECT_GT(moved, 0u);
                }
                lastLists = r.binned.tileLists;
            }
        }
    }
}
