/**
 * @file
 * Simulator-level integration tests: the headline claims of the paper
 * must hold as relative shapes on the synthetic workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

SimResult
runAlias(const std::string &alias, Technique tech, u64 frames = 10,
         u32 w = 208, u32 h = 128, unsigned tileJobs = 1)
{
    GpuConfig config;
    config.scaleResolution(w, h);
    config.technique = tech;
    auto scene = makeBenchmark(alias, config);
    SimOptions opts;
    opts.frames = frames;
    opts.tileJobs = tileJobs;
    Simulator sim(*scene, config, opts);
    return sim.run();
}

} // namespace

TEST(SimIntegration, ReSpeedsUpStaticWorkloads)
{
    SimResult base = runAlias("ccs", Technique::Baseline);
    SimResult re = runAlias("ccs", Technique::RenderingElimination);
    double speedup = static_cast<double>(base.totalCycles())
        / re.totalCycles();
    EXPECT_GT(speedup, 1.5);
}

TEST(SimIntegration, ReNearlyHarmlessOnShooter)
{
    SimResult base = runAlias("mst", Technique::Baseline);
    SimResult re = runAlias("mst", Technique::RenderingElimination);
    double ratio = static_cast<double>(re.totalCycles())
        / base.totalCycles();
    // Paper: below 1% on their traces. Our synthetic scenes are far
    // lower-poly than the commercial games (so the fixed signature
    // work of large background primitives is relatively bigger);
    // a few percent is the honest bound here - see EXPERIMENTS.md.
    EXPECT_LT(ratio, 1.05);
}

TEST(SimIntegration, ReSavesEnergyOnStaticWorkloads)
{
    SimResult base = runAlias("cde", Technique::Baseline);
    SimResult re = runAlias("cde", Technique::RenderingElimination);
    EXPECT_LT(re.energy.total(), base.energy.total() * 0.7);
}

TEST(SimIntegration, ReReducesDramTraffic)
{
    SimResult base = runAlias("ccs", Technique::Baseline);
    SimResult re = runAlias("ccs", Technique::RenderingElimination);
    EXPECT_LT(re.traffic.total(), base.traffic.total());
    EXPECT_LT(re.traffic[TrafficClass::Texels],
              base.traffic[TrafficClass::Texels]);
    EXPECT_LT(re.traffic[TrafficClass::Colors],
              base.traffic[TrafficClass::Colors]);
}

TEST(SimIntegration, ReNeverProducesWrongImages)
{
    // Zero false positives with CRC32 across the whole suite (small
    // scale): the paper found none either.
    for (const auto &info : benchmarkSuite()) {
        SimResult re = runAlias(info.alias,
                                Technique::RenderingElimination, 6,
                                160, 96);
        EXPECT_EQ(re.reFalsePositives, 0u) << info.alias;
    }
}

TEST(SimIntegration, TeEliminatesFlushesButKeepsRenderingCost)
{
    SimResult base = runAlias("ccs", Technique::Baseline);
    SimResult te = runAlias("ccs", Technique::TransactionElimination);
    // TE saves color traffic...
    EXPECT_LT(te.traffic[TrafficClass::Colors],
              base.traffic[TrafficClass::Colors]);
    // ...but still shades every fragment.
    EXPECT_EQ(te.fragmentsShaded, base.fragmentsShaded);
}

TEST(SimIntegration, ReBeatsTeOnEnergy)
{
    SimResult te = runAlias("cde", Technique::TransactionElimination);
    SimResult re = runAlias("cde", Technique::RenderingElimination);
    EXPECT_LT(re.energy.total(), te.energy.total());
}

TEST(SimIntegration, ReBeatsTeOnCycles)
{
    SimResult te = runAlias("ccs", Technique::TransactionElimination);
    SimResult re = runAlias("ccs", Technique::RenderingElimination);
    EXPECT_LT(re.totalCycles(), te.totalCycles());
}

TEST(SimIntegration, MemoizationReusesFragmentsButShadesMoreThanRe)
{
    SimResult base = runAlias("ccs", Technique::Baseline);
    SimResult memo = runAlias("ccs", Technique::FragmentMemoization);
    SimResult re = runAlias("ccs", Technique::RenderingElimination);
    EXPECT_LT(memo.fragmentsShaded, base.fragmentsShaded);
    EXPECT_LT(re.fragmentsShaded, memo.fragmentsShaded);
}

TEST(SimIntegration, TileClassesPartitionCompares)
{
    SimResult re = runAlias("ctr", Technique::RenderingElimination);
    const TileClassCounts &tc = re.tileClasses;
    EXPECT_EQ(tc.comparedTiles,
              tc.equalColorsEqualInputs + tc.equalColorsDiffInputs
              + tc.diffColorsDiffInputs + tc.diffColorsEqualInputs);
    // CRC32: no diff-colors-equal-inputs tiles.
    EXPECT_EQ(tc.diffColorsEqualInputs, 0u);
}

TEST(SimIntegration, FalseNegativeSourceProducesEqColorsDiffInputs)
{
    // ctr has the occluded spinner: some tiles have equal colors but
    // different inputs (the paper's 12% mid bar).
    SimResult re = runAlias("ctr", Technique::RenderingElimination);
    EXPECT_GT(re.tileClasses.equalColorsDiffInputs, 0u);
}

TEST(SimIntegration, GeometryWorkPreservedUnderRe)
{
    // RE skips raster work only: geometry cycles never shrink, and
    // grow only by the Signature Unit stalls. Low-poly synthetic
    // scenes with full-screen background primitives make that stall
    // a larger fraction of (small) geometry time than the paper's
    // 0.64% - the raster-side savings still dwarf it (checked by
    // ReSpeedsUpStaticWorkloads).
    SimResult base = runAlias("ccs", Technique::Baseline);
    SimResult re = runAlias("ccs", Technique::RenderingElimination);
    EXPECT_GE(re.geometryCycles, base.geometryCycles);
    EXPECT_EQ(re.geometryCycles - base.geometryCycles,
              re.signatureStallCycles);
    EXPECT_LT(re.signatureStallCycles, base.totalCycles() / 20);
}

TEST(SimIntegration, EqualTilesMetricMatchesCoherenceClass)
{
    SimResult ccs = runAlias("ccs", Technique::Baseline);
    SimResult mst = runAlias("mst", Technique::Baseline);
    EXPECT_GT(ccs.equalTilesConsecutivePct, 75.0);
    EXPECT_LT(mst.equalTilesConsecutivePct, 20.0);
}

TEST(SimIntegration, EqualTilesMetricMatchesNaiveFrontBufferOracle)
{
    // Fig. 2 oracle: snapshot the displayed frame pixel by pixel after
    // every frame, and count per consecutive pair the tiles whose
    // on-screen pixels all match. 200x120 leaves the right column and
    // bottom row of tiles clipped.
    u64 totalEqual = 0, totalCompared = 0;
    for (const char *alias : {"ccs", "coc"}) {
        for (Technique tech : {Technique::Baseline,
                               Technique::RenderingElimination,
                               Technique::TransactionElimination}) {
            SCOPED_TRACE(std::string(alias) + " "
                         + techniqueName(tech));
            GpuConfig config;
            config.scaleResolution(200, 120);
            config.technique = tech;
            auto scene = makeBenchmark(alias, config);
            SimOptions opts;
            opts.frames = 6;

            Simulator stepped(*scene, config, opts);
            const FrameBuffer &fb = stepped.pipeline().frameBuffer();
            std::vector<Color> prev, cur;
            u64 equal = 0, compared = 0;
            for (u64 f = 0; f < opts.frames; f++) {
                stepped.stepFrame(f);
                cur.clear();
                for (u32 y = 0; y < config.screenHeight; y++)
                    for (u32 x = 0; x < config.screenWidth; x++)
                        cur.push_back(fb.frontPixel(x, y));
                if (f > 0) {
                    std::vector<bool> same(config.numTiles(), true);
                    for (u32 y = 0; y < config.screenHeight; y++)
                        for (u32 x = 0; x < config.screenWidth; x++) {
                            const std::size_t i =
                                std::size_t{y} * config.screenWidth + x;
                            if (!(cur[i] == prev[i]))
                                same[config.tileAt(x, y)] = false;
                        }
                    for (bool s : same)
                        equal += s ? 1 : 0;
                    compared += config.numTiles();
                }
                std::swap(prev, cur);
            }

            Simulator ran(*scene, config, opts);
            EXPECT_EQ(ran.run().equalTilesConsecutivePct,
                      100.0 * equal / compared);
            totalEqual += equal;
            totalCompared += compared;
        }
    }
    // Both outcomes occur, so neither "always equal" nor "never
    // equal" could pass.
    EXPECT_GT(totalEqual, 0u);
    EXPECT_LT(totalEqual, totalCompared);
}

TEST(SimIntegration, ResultsAreReproducible)
{
    SimResult a = runAlias("tib", Technique::RenderingElimination, 6);
    SimResult b = runAlias("tib", Technique::RenderingElimination, 6);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_EQ(a.tilesSkippedByRe, b.tilesSkippedByRe);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(SimIntegration, ResultCountsEqualTheirRegistryCounters)
{
    // SimResult's tile and fragment counts are read from each frame's
    // FrameTotals, whose charge() writes the same sums to the registry;
    // the overheads come from RE. Both must agree for every technique
    // on both schedules.
    const std::pair<const char *, u64 SimResult::*> fields[] = {
        {"raster.tilesRendered", &SimResult::tilesRendered},
        {"raster.tilesEliminated", &SimResult::tilesSkippedByRe},
        {"raster.tileFlushesEliminated",
         &SimResult::tileFlushesEliminated},
        {"raster.fragmentsShaded", &SimResult::fragmentsShaded},
        {"raster.fragmentsMemoReused", &SimResult::fragmentsMemoReused},
        {"re.stallCycles", &SimResult::signatureStallCycles},
        {"re.falsePositives", &SimResult::reFalsePositives}};
    std::map<std::string, u64> seen;
    for (const char *alias : {"ccs", "csn"}) {
        for (Technique tech :
             {Technique::Baseline, Technique::RenderingElimination,
              Technique::TransactionElimination,
              Technique::FragmentMemoization}) {
            for (unsigned jobs : {1u, 4u}) {
                SCOPED_TRACE(std::string(alias) + " "
                             + techniqueName(tech) + " tile-jobs "
                             + std::to_string(jobs));
                const SimResult r =
                    runAlias(alias, tech, 6, 208, 128, jobs);
                for (const auto &[name, field] : fields) {
                    EXPECT_EQ(r.*field, r.stats.counter(name)) << name;
                    seen[name] += r.*field;
                }
            }
        }
    }
    // Every count but the false positives occurred, so no pair above
    // compares only zeros.
    for (const auto &[name, field] : fields) {
        if (std::string(name) != "re.falsePositives") {
            EXPECT_GT(seen[name], 0u) << name;
        }
    }
}
