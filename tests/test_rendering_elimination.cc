/**
 * @file
 * Rendering Elimination end-to-end behaviour on a controlled pipeline:
 * skip decisions, correctness of reused tiles, driver disable rules.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "re/rendering_elimination.hh"
#include "scene/mesh_gen.hh"

using namespace regpu;

namespace
{

/**
 * Fixture: 64x64 screen (16 tiles), a static background quad and an
 * optional mover whose drawcalls come from a Scene.
 */
struct ReFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;
    std::unique_ptr<Scene> scene;
    std::unique_ptr<GraphicsPipeline> pipe;
    std::unique_ptr<RenderingElimination> re;

    ReFixture()
    {
        config.scaleResolution(64, 64);
        config.technique = Technique::RenderingElimination;
    }

    void
    buildScene(bool withMover)
    {
        scene = std::make_unique<Scene>("re-test", config);
        u32 tex = scene->addTexture(
            Texture(0, 64, 64, TexturePattern::Checker, 5));

        SceneObject bg;
        bg.name = "bg";
        bg.mesh = makeQuad(64, 64);
        bg.shader = ShaderKind::Textured;
        bg.textureId = static_cast<i32>(tex);
        bg.depthTest = false;
        bg.animate = [](u64) {
            Pose p;
            p.position = {32, 32, 0.5f};
            return p;
        };
        scene->addObject(std::move(bg));

        if (withMover) {
            SceneObject mover;
            mover.name = "mover";
            mover.mesh = makeQuad(12, 12, 0.5f);
            mover.shader = ShaderKind::Textured;
            mover.textureId = static_cast<i32>(tex);
            mover.depthTest = false;
            mover.animate = [](u64 frame) {
                Pose p;
                p.position = {10.0f + 2.0f * frame, 10, 0.2f};
                return p;
            };
            scene->addObject(std::move(mover));
        }

        re = std::make_unique<RenderingElimination>(config, stats);
        pipe = std::make_unique<GraphicsPipeline>(config, stats, nullptr,
                                                  scene->textures());
        pipe->setHooks(re.get());
    }

    FrameResult
    frame(u64 i)
    {
        return pipe->renderFrame(scene->emitFrame(i), true);
    }
};

} // namespace

TEST_F(ReFixture, FirstFramesNeverSkipped)
{
    buildScene(false);
    FrameResult f0 = frame(0);
    FrameResult f1 = frame(1);
    for (const TileOutcome &t : f0.tiles)
        EXPECT_TRUE(t.rendered);
    for (const TileOutcome &t : f1.tiles)
        EXPECT_TRUE(t.rendered);
}

TEST_F(ReFixture, StaticSceneFullySkippedAtSteadyState)
{
    buildScene(false);
    frame(0);
    frame(1);
    FrameResult f2 = frame(2); // compares against frame 0
    for (const TileOutcome &t : f2.tiles)
        EXPECT_FALSE(t.rendered) << "tile should be eliminated";
    EXPECT_EQ(stats.counter("re.falsePositives"), 0u);
}

TEST_F(ReFixture, SkippedTilesHaveCorrectColors)
{
    buildScene(false);
    frame(0);
    frame(1);
    FrameResult f2 = frame(2);
    // Ground-truth shadow render marked every skipped tile equal.
    for (const TileOutcome &t : f2.tiles)
        EXPECT_TRUE(t.equalColors);
}

TEST_F(ReFixture, MovingObjectTilesRendered)
{
    buildScene(true);
    frame(0);
    frame(1);
    FrameResult f2 = frame(2);
    u32 rendered = 0, skipped = 0;
    for (const TileOutcome &t : f2.tiles)
        (t.rendered ? rendered : skipped)++;
    EXPECT_GT(rendered, 0u); // mover's tiles change inputs
    EXPECT_GT(skipped, 0u);  // background-only tiles skip
    EXPECT_EQ(stats.counter("re.falsePositives"), 0u);
}

TEST_F(ReFixture, GlobalStateChangeDisablesReForTheFrame)
{
    buildScene(false);
    frame(0);
    frame(1);
    scene->markGlobalStateChange(2);
    FrameResult f2 = frame(2);
    for (const TileOutcome &t : f2.tiles)
        EXPECT_TRUE(t.rendered);
    EXPECT_EQ(stats.counter("re.framesDisabled"), 1u);
}

TEST_F(ReFixture, DisabledFramePoisonsLaterComparisons)
{
    buildScene(false);
    frame(0);
    frame(1);
    scene->markGlobalStateChange(2);
    frame(2); // disabled; its signatures are invalid
    frame(3); // compares vs frame 1: fine
    FrameResult f4 = frame(4); // compares vs frame 2: must render
    for (const TileOutcome &t : f4.tiles)
        EXPECT_TRUE(t.rendered);
}

TEST_F(ReFixture, RefreshPeriodForcesRender)
{
    config.refreshPeriodFrames = 3;
    buildScene(false);
    frame(0);
    frame(1);
    FrameResult f2 = frame(2); // refresh frame (2 % 3 == 2)
    for (const TileOutcome &t : f2.tiles)
        EXPECT_TRUE(t.rendered);
}

TEST_F(ReFixture, UniformChangeInvalidatesCoveredTiles)
{
    buildScene(false);
    // Manually emit frames where the background tint changes at f2.
    frame(0);
    frame(1);
    FrameCommands cmds = scene->emitFrame(2);
    cmds.draws[0].state.uniforms.tint = {0.5f, 0.5f, 0.5f, 1.0f};
    FrameResult f2 = pipe->renderFrame(cmds, true);
    for (const TileOutcome &t : f2.tiles)
        EXPECT_TRUE(t.rendered); // constants differ -> signatures differ
}

TEST_F(ReFixture, TextureIdsDifferingAboveBit15ChangeSignature)
{
    // Regression: the constants signature used to serialize
    // textureId + 1 truncated to 16 bits, so two draws whose ids
    // differ only above bit 15 produced identical signature bytes —
    // a silent false match. Flat shading keeps the rasterizer off the
    // texture array, so the id can take arbitrary values while still
    // being part of the signed state.
    buildScene(false);
    auto frameWithTex = [&](u64 f, i32 texId) {
        FrameCommands cmds = scene->emitFrame(f);
        for (DrawCall &d : cmds.draws) {
            d.state.shader = ShaderKind::Flat;
            d.state.textureId = texId;
        }
        return pipe->renderFrame(cmds, true);
    };
    frameWithTex(0, 5);
    frameWithTex(1, 5);
    FrameResult same = frameWithTex(2, 5); // steady state: eliminated
    for (const TileOutcome &t : same.tiles)
        EXPECT_FALSE(t.rendered);
    // Frame 3 compares against frame 1 (double buffering): the id
    // collides with 5 under the old 16-bit truncation but is a
    // different binding, so every covered tile must render.
    FrameResult diff = frameWithTex(3, 5 + 0x10000);
    for (const TileOutcome &t : diff.tiles)
        EXPECT_TRUE(t.rendered);
}

TEST_F(ReFixture, TextureId0xFFFFDoesNotAliasNoTexture)
{
    // The other collision of the truncated encoding: id 0xFFFF maps
    // to 0x10000, whose low 16 bits are 0 — the "no texture bound"
    // encoding. The two states must produce different signatures.
    buildScene(false);
    auto frameWithTex = [&](u64 f, i32 texId) {
        FrameCommands cmds = scene->emitFrame(f);
        for (DrawCall &d : cmds.draws) {
            d.state.shader = ShaderKind::Flat;
            d.state.textureId = texId;
        }
        return pipe->renderFrame(cmds, true);
    };
    frameWithTex(0, -1);
    frameWithTex(1, -1);
    FrameResult same = frameWithTex(2, -1);
    for (const TileOutcome &t : same.tiles)
        EXPECT_FALSE(t.rendered);
    FrameResult diff = frameWithTex(3, 0xFFFF);
    for (const TileOutcome &t : diff.tiles)
        EXPECT_TRUE(t.rendered);
}

TEST_F(ReFixture, SignatureComparesCountedPerTile)
{
    buildScene(false);
    frame(0);
    frame(1);
    frame(2);
    EXPECT_EQ(stats.counter("re.signatureCompares"),
              3ull * config.numTiles());
}

TEST_F(ReFixture, SkipDecisionsAreDeterministic)
{
    buildScene(true);
    std::vector<bool> firstRun;
    for (u64 f = 0; f < 5; f++) {
        FrameResult r = frame(f);
        for (const TileOutcome &t : r.tiles)
            firstRun.push_back(t.rendered);
    }

    // Rebuild everything and repeat.
    stats.reset();
    buildScene(true);
    std::size_t idx = 0;
    for (u64 f = 0; f < 5; f++) {
        FrameResult r = frame(f);
        for (const TileOutcome &t : r.tiles)
            EXPECT_EQ(t.rendered, firstRun[idx++]);
    }
}
