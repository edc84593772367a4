/**
 * @file
 * Fragment Memoization tests: LUT behaviour and the PFR even/odd
 * frame-pair asymmetry.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "memo/fragment_memo.hh"
#include "scene/mesh_gen.hh"

using namespace regpu;

TEST(MemoLut, MissThenHit)
{
    MemoLut lut(16, 4);
    Color c;
    EXPECT_FALSE(lut.lookup(42, c));
    lut.insert(42, Color(1, 2, 3));
    EXPECT_TRUE(lut.lookup(42, c));
    EXPECT_EQ(c, Color(1, 2, 3));
}

TEST(MemoLut, DistinctSignaturesDistinctEntries)
{
    MemoLut lut(16, 4);
    lut.insert(1, Color(1, 0, 0));
    lut.insert(2, Color(0, 1, 0));
    Color c;
    ASSERT_TRUE(lut.lookup(1, c));
    EXPECT_EQ(c, Color(1, 0, 0));
    ASSERT_TRUE(lut.lookup(2, c));
    EXPECT_EQ(c, Color(0, 1, 0));
}

TEST(MemoLut, LruEvictionWithinSet)
{
    MemoLut lut(8, 2); // 4 sets, 2 ways
    // Signatures mapping to the same set: s % 4 equal.
    lut.insert(0, Color(1, 1, 1));
    lut.insert(4, Color(2, 2, 2));
    Color c;
    lut.lookup(0, c);      // 0 is MRU, 4 is LRU
    lut.insert(8, Color(3, 3, 3)); // evicts 4
    EXPECT_TRUE(lut.lookup(0, c));
    EXPECT_FALSE(lut.lookup(4, c));
    EXPECT_TRUE(lut.lookup(8, c));
}

TEST(MemoLut, ClearDropsEverything)
{
    MemoLut lut(16, 4);
    lut.insert(7, Color(9, 9, 9));
    lut.clear();
    Color c;
    EXPECT_FALSE(lut.lookup(7, c));
}

TEST(MemoLut, SizeBytesMatchesConfiguration)
{
    MemoLut lut(2048, 4);
    EXPECT_EQ(lut.sizeBytes(), 2048u * 8);
}

TEST(MemoLutDeathTest, ZeroWaysIsRejected)
{
    // Regression: entries/ways with ways == 0 used to make numSets 0
    // and every `sig % numSets` undefined behaviour.
    EXPECT_EXIT(MemoLut(16, 0), ::testing::ExitedWithCode(1),
                "MemoLut: memo LUT ways must be >= 1");
}

TEST(MemoLutDeathTest, FewerEntriesThanWaysIsRejected)
{
    EXPECT_EXIT(MemoLut(2, 4), ::testing::ExitedWithCode(1),
                "MemoLut: memo LUT entries .2. must be >= ways .4.");
}

TEST(MemoLutDeathTest, NonMultipleEntriesAreRejected)
{
    EXPECT_EXIT(MemoLut(10, 4), ::testing::ExitedWithCode(1),
                "MemoLut: memo LUT entries .10. must be a multiple of"
                " ways");
}

TEST(MemoLutDeathTest, GpuConfigValidateCatchesBadLutGeometry)
{
    GpuConfig bad;
    bad.memoLutWays = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "GpuConfig: memo LUT ways must be >= 1");
    GpuConfig bad2;
    bad2.memoLutEntries = 3;
    bad2.memoLutWays = 4;
    EXPECT_EXIT(bad2.validate(), ::testing::ExitedWithCode(1),
                "GpuConfig: memo LUT entries .3. must be >= ways");
}

TEST(MemoLut, ValidConfigPassesValidation)
{
    GpuConfig good;
    good.validate(); // must not exit
    SUCCEED();
}

// ---- Differential oracle -------------------------------------------------

namespace
{

/**
 * The naive reference: one vector of ways per set, each with a valid
 * flag and the value of a counter bumped by every lookup and insert;
 * clear() wipes every way. Same policy as MemoLut: a lookup returns
 * the first valid way holding the tag, and an insert fills the first
 * invalid way, else evicts the least recently used one.
 */
class NaiveMemoLut
{
  public:
    NaiveMemoLut(u32 entries, u32 ways)
        : sets(entries / ways, std::vector<Way>(ways))
    {}

    bool
    lookup(u32 sig, Color &color)
    {
        clock++;
        for (Way &w : sets[sig % sets.size()]) {
            if (w.valid && w.tag == sig) {
                color = w.color;
                w.lastUse = clock;
                return true;
            }
        }
        return false;
    }

    void
    insert(u32 sig, Color color)
    {
        clock++;
        std::vector<Way> &set = sets[sig % sets.size()];
        Way *victim = &set[0];
        for (Way &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (w.lastUse < victim->lastUse)
                victim = &w;
        }
        evictions += victim->valid;
        *victim = {true, sig, color, clock};
    }

    void
    clear()
    {
        for (std::vector<Way> &set : sets)
            for (Way &w : set)
                w = Way{};
    }

    /** Valid ways of @p sig's set holding @p sig. */
    u32
    copies(u32 sig) const
    {
        u32 n = 0;
        for (const Way &w : sets[sig % sets.size()])
            n += w.valid && w.tag == sig;
        return n;
    }

    u64 evictions = 0;

  private:
    struct Way
    {
        bool valid = false;
        u32 tag = 0;
        Color color;
        u64 lastUse = 0;
    };

    std::vector<std::vector<Way>> sets;
    u64 clock = 0;
};

/**
 * Drive MemoLut and NaiveMemoLut with the same seeded stream and
 * compare every lookup. Three in four signatures fall in a few hot
 * sets with three times as many candidates as ways, so evictions
 * start long before the next clear even at 2048 entries. Most steps
 * are a lookup followed, on a miss, by an insert, as the renderer
 * does; the rest insert without looking, as the partner-frame replay
 * does, which can leave two ways with the same tag and different
 * colors. A clear comes every 40 steps on average.
 */
void
expectMemoLutMatchesNaive(u32 entries, u32 ways, u64 seed)
{
    SCOPED_TRACE(std::to_string(entries) + "x" + std::to_string(ways));
    MemoLut lut(entries, ways);
    NaiveMemoLut naive(entries, ways);
    Rng rng(seed);
    const u32 numSets = entries / ways;
    const u32 hotSets = std::min<u32>(numSets, 4);
    u64 hits = 0, misses = 0, duplicateHits = 0, clears = 0;
    for (int i = 0; i < 20000; i++) {
        if (rng.nextBounded(40) == 0) {
            lut.clear();
            naive.clear();
            clears++;
            continue;
        }
        const u32 sig = rng.nextBounded(4) != 0
            ? static_cast<u32>(rng.nextBounded(3 * ways) * numSets
                               + rng.nextBounded(hotSets))
            : static_cast<u32>(rng.next());
        const u64 bits = rng.next();
        const Color color(static_cast<u8>(bits), static_cast<u8>(bits >> 8),
                          static_cast<u8>(bits >> 16),
                          static_cast<u8>(bits >> 24));
        if (rng.nextBounded(4) == 0) {
            lut.insert(sig, color);
            naive.insert(sig, color);
            continue;
        }
        duplicateHits += naive.copies(sig) > 1;
        Color got, want;
        const bool hit = naive.lookup(sig, want);
        ASSERT_EQ(lut.lookup(sig, got), hit) << "step " << i;
        if (hit) {
            ASSERT_EQ(got, want) << "step " << i;
            hits++;
        } else {
            lut.insert(sig, color);
            naive.insert(sig, color);
            misses++;
        }
    }
    // The stream must exercise what it claims to.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(clears, 0u);
    EXPECT_GT(naive.evictions, 0u);
    if (ways > 1) {
        EXPECT_GT(duplicateHits, 0u);
    }
}

} // namespace

TEST(MemoLutOracle, GeometriesMatchNaiveLut)
{
    expectMemoLutMatchesNaive(2048, 4, 0x3e30);
    expectMemoLutMatchesNaive(8, 2, 0x3e31);
    expectMemoLutMatchesNaive(4, 1, 0x3e32);
}

namespace
{

struct MemoFixture : ::testing::Test
{
    GpuConfig config;
    StatRegistry stats;
    std::unique_ptr<Scene> scene;
    std::unique_ptr<GraphicsPipeline> pipe;
    std::unique_ptr<FragmentMemoization> memo;

    MemoFixture()
    {
        config.scaleResolution(64, 64);
        config.technique = Technique::FragmentMemoization;
        scene = std::make_unique<Scene>("memo-test", config);
        u32 tex = scene->addTexture(
            Texture(0, 64, 64, TexturePattern::Solid, 5));
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
        memo = std::make_unique<FragmentMemoization>(config, stats);
        pipe = std::make_unique<GraphicsPipeline>(config, stats, nullptr,
                                                  scene->textures());
        pipe->setHooks(memo.get());
    }

    FrameResult
    frame(u64 i)
    {
        return pipe->renderFrame(scene->emitFrame(i), true);
    }
};

u64
reused(const FrameResult &r)
{
    u64 n = 0;
    for (const TileOutcome &t : r.tiles)
        n += t.stats.fragmentsMemoReused;
    return n;
}

u64
shaded(const FrameResult &r)
{
    u64 n = 0;
    for (const TileOutcome &t : r.tiles)
        n += t.stats.fragmentsShaded;
    return n;
}

} // namespace

TEST_F(MemoFixture, FirstFrameOfPairShadesTexturedFragments)
{
    // Textured fragments carry per-pixel texcoords: within the pair's
    // first frame essentially nothing matches, so everything is
    // shaded. (The quad's two triangles share the diagonal; those few
    // double-covered pixels repeat their inputs and may reuse.)
    FrameResult f0 = frame(0);
    EXPECT_LE(reused(f0), 64u);
    EXPECT_GE(shaded(f0), 64u * 64);
}

TEST_F(MemoFixture, FlatFragmentsReuseWithinFrame)
{
    // A flat fill's fragments all share one input signature: after
    // the first fragment of a tile, the rest hit the LUT even within
    // the pair's first frame.
    GpuConfig cfg;
    cfg.scaleResolution(64, 64);
    cfg.technique = Technique::FragmentMemoization;
    Scene flatScene("flat", cfg);
    SceneObject quad;
    quad.name = "fill";
    quad.mesh = makeQuad(64, 64);
    quad.shader = ShaderKind::Flat;
    quad.depthTest = false;
    quad.animate = [](u64) {
        Pose p;
        p.position = {32, 32, 0.5f};
        return p;
    };
    flatScene.addObject(std::move(quad));
    StatRegistry flatStats;
    FragmentMemoization flatMemo(cfg, flatStats);
    GraphicsPipeline flatPipe(cfg, flatStats, nullptr,
                              flatScene.textures());
    flatPipe.setHooks(&flatMemo);
    FrameResult f0 = flatPipe.renderFrame(flatScene.emitFrame(0), true);
    u64 r = 0, s = 0, g = 0;
    for (const TileOutcome &t : f0.tiles) {
        r += t.stats.fragmentsMemoReused;
        s += t.stats.fragmentsShaded;
        g += t.stats.fragmentsGenerated;
    }
    // One shaded fragment per tile (16 tiles), the rest reused.
    EXPECT_EQ(s, 16u);
    EXPECT_EQ(r, g - 16u);
}

TEST_F(MemoFixture, OddFrameReusesEvenFramesEntries)
{
    frame(0);
    FrameResult f1 = frame(1); // same pair: LUT warm
    EXPECT_GT(reused(f1), shaded(f1));
}

TEST_F(MemoFixture, PairBoundaryClearsLut)
{
    frame(0);
    u64 hitsAfterF0 = stats.counter("memo.hits");
    frame(1);
    u64 hitsAfterF1 = stats.counter("memo.hits");
    FrameResult f2 = frame(2); // new pair: cleared, must re-shade
    // Frame 2 still reuses within itself (uniform fragments), but its
    // first fragment classes missed, so shading happened again.
    EXPECT_GT(shaded(f2), 0u);
    EXPECT_GT(hitsAfterF1, hitsAfterF0);
}

TEST_F(MemoFixture, ReusedColorsAreExact)
{
    // Memoized reuse must be bit-exact: rendered output equals the
    // ground truth every frame (equalColors path exercised by the
    // pipeline's shadow compare on unflushed... here just check the
    // frame matches a baseline run).
    GpuConfig baseCfg = config;
    baseCfg.technique = Technique::Baseline;
    StatRegistry baseStats;
    GraphicsPipeline basePipe(baseCfg, baseStats, nullptr,
                              scene->textures());
    for (u64 f = 0; f < 3; f++) {
        FrameResult a = frame(f);
        FrameResult b = basePipe.renderFrame(scene->emitFrame(f), false);
        (void)a;
        (void)b;
    }
    // Compare final front buffers pixel-by-pixel.
    for (u32 y = 0; y < config.screenHeight; y += 3)
        for (u32 x = 0; x < config.screenWidth; x += 3)
            EXPECT_EQ(pipe->frameBuffer().frontPixel(x, y),
                      basePipe.frameBuffer().frontPixel(x, y));
}

TEST_F(MemoFixture, LookupsAndHitsMatchTheRenderedFragments)
{
    // Every fragment an active frame shades or reuses made one
    // lookup, and every reuse was a hit. A frame with a global-state
    // upload runs with memoization off and looks nothing up. The
    // counters must not depend on how many workers rendered the tiles.
    scene->markGlobalStateChange(3);
    std::vector<std::vector<u64>> perFrame;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("tile-jobs " + std::to_string(jobs));
        StatRegistry s;
        FragmentMemoization m(config, s);
        GraphicsPipeline p(config, s, nullptr, scene->textures());
        p.setHooks(&m);
        p.setTileJobs(jobs);
        std::vector<u64> counts;
        for (u64 f = 0; f < 6; f++) {
            SCOPED_TRACE("frame " + std::to_string(f));
            const u64 lookups0 = s.counter("memo.lookups");
            const u64 hits0 = s.counter("memo.hits");
            const FrameResult r = p.renderFrame(scene->emitFrame(f));
            const u64 lookups = s.counter("memo.lookups") - lookups0;
            const u64 hits = s.counter("memo.hits") - hits0;
            EXPECT_EQ(hits, reused(r));
            EXPECT_EQ(lookups, f == 3 ? 0 : shaded(r) + reused(r));
            EXPECT_GT(shaded(r), 0u);
            counts.insert(counts.end(), {lookups, hits});
        }
        EXPECT_GT(s.counter("memo.hits"), 0u);
        perFrame.push_back(counts);
    }
    EXPECT_EQ(perFrame[0], perFrame[1]);
}

namespace
{

/** Every field of every tile outcome of a frame, flattened. */
std::vector<u64>
outcomeFields(const FrameResult &r)
{
    std::vector<u64> v;
    for (const TileOutcome &t : r.tiles) {
        const TileRenderStats &s = t.stats;
        v.insert(v.end(),
                 {t.rendered, t.flushed, t.equalColors, s.primitivesFetched,
                  s.fragmentsGenerated, s.fragmentsEarlyZKilled,
                  s.fragmentsShaded, s.fragmentsMemoReused,
                  s.shaderInstructions, s.texelFetches, s.blendOps,
                  s.parameterBytesRead});
    }
    return v;
}

/** One Memo pipeline and what it produced. */
struct MemoRig
{
    StatRegistry stats;
    FragmentMemoization memo;
    GraphicsPipeline pipe;
    std::vector<std::vector<u64>> outcomes;

    MemoRig(const GpuConfig &config, const Scene &scene, unsigned jobs)
        : memo(config, stats),
          pipe(config, stats, nullptr, scene.textures())
    {
        pipe.setHooks(&memo);
        pipe.setTileJobs(jobs);
    }

    void
    frame(const Scene &scene, u64 f)
    {
        outcomes.push_back(outcomeFields(pipe.renderFrame(scene.emitFrame(f))));
    }
};

} // namespace

TEST_F(MemoFixture, InstancesWithDifferentLutsShareEachThreadsLut)
{
    // Each rendering thread keeps one LUT, whichever instance binds
    // it. Two instances with different LUT geometry render alternate
    // frames, first on this thread, then on 4 tile workers; each must
    // produce what it produces alone.
    GpuConfig small = config;
    small.memoLutEntries = 64;
    small.memoLutWays = 2;
    const u64 frames = 4;
    MemoRig aloneLarge(config, *scene, 1);
    MemoRig aloneSmall(small, *scene, 1);
    // Alone means on a new thread, whose LUT no other geometry has
    // touched.
    for (MemoRig *rig : {&aloneLarge, &aloneSmall})
        std::thread([&] {
            for (u64 f = 0; f < frames; f++)
                rig->frame(*scene, f);
        }).join();
    // The 64-entry LUT cannot hold a tile's 256 fragments.
    EXPECT_LT(aloneSmall.stats.counter("memo.hits"),
              aloneLarge.stats.counter("memo.hits"));

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("tile-jobs " + std::to_string(jobs));
        MemoRig large(config, *scene, jobs);
        MemoRig smallRig(small, *scene, jobs);
        for (u64 f = 0; f < frames; f++) {
            large.frame(*scene, f);
            smallRig.frame(*scene, f);
        }
        EXPECT_EQ(large.outcomes, aloneLarge.outcomes);
        EXPECT_EQ(large.stats.allCounters(), aloneLarge.stats.allCounters());
        EXPECT_EQ(smallRig.outcomes, aloneSmall.outcomes);
        EXPECT_EQ(smallRig.stats.allCounters(),
                  aloneSmall.stats.allCounters());
    }
}
