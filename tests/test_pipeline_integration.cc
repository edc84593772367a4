/**
 * @file
 * Cross-module integration tests of the full functional pipeline:
 * golden-image checks, baseline invariants, hook plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "crc/crc32.hh"
#include "gpu/pipeline.hh"
#include "scene/mesh_gen.hh"
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
