/**
 * @file
 * Every table of the paper's evaluation — Fig. 1, Table II with Fig. 2,
 * Figs. 14-17 and the Section V overheads, in that order — from one
 * base,re,te,memo sweep of the ten suite workloads plus one Baseline
 * run of the desktop scene. The flags are ExperimentScale's (--fast,
 * --full, --frames N, --jobs N, --tile-jobs N, --record-dir DIR,
 * --replay-dir DIR); the output is identical for every --jobs and
 * --tile-jobs, and tests/golden/paper_figures_400x256x12.txt pins it
 * at --fast.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "power/energy_model.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** One suite workload under every technique of the sweep. */
struct WorkloadResults
{
    std::string alias;
    SimResult base, re, te, memo;
};

using Suite = std::vector<WorkloadResults>;

/**
 * Run the ten suite workloads under base, re, te and memo. Scenes and
 * seeds are identical across techniques; with scale.jobs > 1 the
 * cells run concurrently, bit-identical to the sequential order.
 */
Suite
runSuite(const ExperimentScale &scale)
{
    const std::vector<std::string> aliases = allAliases();
    std::vector<SimJob> jobs = buildSweepJobs(
        aliases,
        {Technique::Baseline, Technique::RenderingElimination,
         Technique::TransactionElimination,
         Technique::FragmentMemoization},
        scale.screenWidth, scale.screenHeight, scale.frames);
    applyTraceFlags(jobs, scale.recordDir, scale.replayDir);
    for (SimJob &job : jobs)
        job.options.tileJobs = scale.tileJobs;
    std::vector<SimResult> r = ParallelRunner(scale.jobs).run(jobs);

    Suite suite;
    for (std::size_t i = 0; i < aliases.size(); i++)
        suite.push_back({aliases[i], std::move(r[4 * i]),
                         std::move(r[4 * i + 1]), std::move(r[4 * i + 2]),
                         std::move(r[4 * i + 3])});
    return suite;
}

/** The desktop scene is not a suite alias: one live Baseline run. */
SimResult
runDesktop(const ExperimentScale &scale)
{
    GpuConfig config;
    config.scaleResolution(scale.screenWidth, scale.screenHeight);
    auto scene = makeDesktopScene(config);
    SimOptions opts;
    opts.frames = scale.frames;
    return Simulator(*scene, config, opts).run();
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / values.size();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0;
    for (double v : values) {
        REGPU_ASSERT(v > 0, "geomean needs positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / values.size());
}

/** @p part as a percentage of @p whole; 0 when there is no whole. */
double
pct(u64 part, u64 whole)
{
    return whole ? 100.0 * part / whole : 0.0;
}

/** @p re over @p base; 1 when the baseline moved no bytes. */
double
ratio(u64 re, u64 base)
{
    return base ? static_cast<double>(re) / base : 1.0;
}

/** DRAM bytes of the raster stages: colors, texels and primitives. */
u64
rasterBytes(const SimResult &r)
{
    return r.traffic[TrafficClass::Colors]
        + r.traffic[TrafficClass::Texels]
        + r.traffic[TrafficClass::Primitives];
}

void
printTableHeader(const char *title, const std::vector<const char *> &columns)
{
    std::printf("\n== %s ==\n", title);
    std::printf("%-10s", "workload");
    for (const char *c : columns)
        std::printf(" %12s", c);
    std::printf("\n");
}

void
printTableRow(const std::string &label, const std::vector<double> &values,
              int precision = 3)
{
    std::printf("%-10s", label.c_str());
    for (double v : values)
        std::printf(" %12.*f", precision, v);
    std::printf("\n");
}

/** Print @p row for every workload and return the table's columns,
 *  which the AVG rows average. */
template <typename RowFn>
std::vector<std::vector<double>>
printRows(const Suite &suite, RowFn row, int precision = 3)
{
    std::vector<std::vector<double>> columns;
    for (const WorkloadResults &w : suite) {
        const std::vector<double> values = row(w);
        printTableRow(w.alias, values, precision);
        columns.resize(values.size());
        for (std::size_t c = 0; c < values.size(); c++)
            columns[c].push_back(values[c]);
    }
    return columns;
}

/**
 * Average power in mW over a 60 fps display window: the display
 * refreshes at 60 fps however fast the GPU finished each frame, and
 * idle cycles draw only the rail/display background power. The
 * Android desktop (no animations) invalidates nothing: the compositor
 * re-renders only the first frame of the window, then the GPU sits
 * idle while the display re-scans the same buffer.
 */
double
windowPowerMw(const SimResult &r, bool desktop)
{
    const u64 frequencyHz = GpuConfig().frequencyHz;
    const u64 activeFrames = desktop ? std::max<u64>(1, r.frames) : 1;
    const Cycles activeCycles = r.totalCycles() / activeFrames;
    const Cycles wallCycles = std::max<Cycles>(
        activeCycles, static_cast<Cycles>(r.frames * frequencyHz / 60));
    const double idleMw = 18.0;
    const double activeMw = EnergyModel::averagePowerMw(
        r.energy, activeCycles, frequencyHz) / activeFrames;
    return activeMw * activeCycles / wallCycles + idleMw;
}

/**
 * Substitute for Fig. 1: average power of the desktop scene vs the
 * games, from the energy model (the paper used a Trepn/Snapdragon
 * measurement we cannot perform). Shape: every game draws far more
 * power than the mostly idle desktop; simple-looking 2D games (ccs)
 * sit in the same league as 3D ones — the paper's motivation for
 * attacking redundant rendering.
 */
void
printFig1(const SimResult &desktopRun, const Suite &suite)
{
    printTableHeader("Fig. 1 (simulated): average GPU+memory power",
                     {"power_mW"});
    const double desktop = windowPowerMw(desktopRun, true);
    printTableRow("desktop", {desktop}, 1);
    auto games = printRows(suite, [](const WorkloadResults &w) {
        return std::vector<double>{windowPowerMw(w.base, false)};
    }, 1);
    printTableRow("gamesAVG", {mean(games[0])}, 1);
    std::printf("\ngames draw %.1fx the desktop's power "
                "(paper shape: games >> desktop)\n",
                mean(games[0]) / desktop);
}

/**
 * Table II, then Fig. 2: % of tiles with the same colors as the
 * preceding frame. Shape: >90% for the static-camera games
 * (ccs..hop), near zero for mst, intermediate for abi..tib.
 */
void
printFig2(const Suite &suite)
{
    std::printf("Table II: benchmark suite\n");
    std::printf("%-6s %-28s %-16s %s\n", "alias", "scenario", "genre",
                "type");
    for (const BenchmarkInfo &b : benchmarkSuite())
        std::printf("%-6s %-28s %-16s %s\n", b.alias.c_str(),
                    b.title.c_str(), b.genre.c_str(),
                    b.is3D ? "3D" : "2D");

    printTableHeader("Fig. 2: equal tiles between consecutive frames (%)",
                     {"equalTiles%"});
    auto col = printRows(suite, [](const WorkloadResults &w) {
        return std::vector<double>{w.base.equalTilesConsecutivePct};
    }, 1);
    printTableRow("AVG", {mean(col[0])}, 1);
}

/**
 * Fig. 14: RE's (a) execution cycles, split into Geometry and Raster,
 * and (b) energy, split into GPU and main memory, both normalized to
 * Baseline. Shape: ~0.58 normalized cycles (1.74x speedup) and ~0.57
 * normalized energy; huge wins on ccs..hop, ~1.0 on mst. The 0 cells
 * of the AVG rows are columns whose average is not meaningful.
 */
void
printFig14(const Suite &suite)
{
    printTableHeader("Fig. 14a: normalized execution cycles (RE / Base)",
                     {"geomNorm", "rasterNorm", "totalNorm", "speedup"});
    auto cyc = printRows(suite, [](const WorkloadResults &w) {
        const double base = static_cast<double>(w.base.totalCycles());
        const double total = w.re.totalCycles() / base;
        return std::vector<double>{w.re.geometryCycles / base,
                                   w.re.rasterCycles / base, total,
                                   1.0 / total};
    });
    printTableRow("AVG", {0, 0, mean(cyc[2]), geomean(cyc[3])});

    printTableHeader("Fig. 14b: normalized energy (RE / Base)",
                     {"gpuNorm", "memNorm", "totalNorm", "saving%"});
    auto energy = printRows(suite, [](const WorkloadResults &w) {
        const double base = w.base.energy.total();
        const double total = w.re.energy.total() / base;
        return std::vector<double>{w.re.energy.gpu() / base,
                                   w.re.energy.memory() / base, total,
                                   100.0 * (1.0 - total)};
    });
    printTableRow("AVG", {0, 0, 0, mean(energy[3])});

    // GPU-only and memory-only savings (paper: 38% / 48%).
    std::vector<double> gpuSave, memSave;
    for (const WorkloadResults &w : suite) {
        gpuSave.push_back(100.0 * (1.0 - w.re.energy.gpu()
                                   / w.base.energy.gpu()));
        memSave.push_back(100.0 * (1.0 - w.re.energy.memory()
                                   / w.base.energy.memory()));
    }
    std::printf("\nGPU energy saving AVG: %.1f%%   "
                "Main-memory energy saving AVG: %.1f%%\n",
                mean(gpuSave), mean(memSave));
}

/**
 * Fig. 15: (a) tile classes — equal colors & equal inputs
 * (RE-eliminated), equal colors & different inputs (false negatives),
 * different colors & inputs — and (b) RE's raster-pipeline DRAM
 * traffic normalized to Baseline, split into Colors / Texels /
 * Primitives. Shape: ~50% of tiles eliminated (81% of all redundant
 * tiles), ~12% false negatives, ~38% changed; 48% less traffic; no
 * diff-colors-equal-inputs tiles. RE compares no tile in frames 0
 * and 1, which have no signature to compare against yet, so a run
 * that short prints 0 classes.
 */
void
printFig15(const Suite &suite)
{
    printTableHeader("Fig. 15a: tile classes (% of compared tiles)",
                     {"eqC&eqI", "eqC&diffI", "diffC&I", "eqI&diffC"});
    auto classes = printRows(suite, [](const WorkloadResults &w) {
        const TileClassCounts &tc = w.re.tileClasses;
        return std::vector<double>{
            pct(tc.equalColorsEqualInputs, tc.comparedTiles),
            pct(tc.equalColorsDiffInputs, tc.comparedTiles),
            pct(tc.diffColorsDiffInputs, tc.comparedTiles),
            pct(tc.diffColorsEqualInputs, tc.comparedTiles)};
    }, 1);
    printTableRow("AVG", {mean(classes[0]), mean(classes[1]),
                          mean(classes[2]), 0.0}, 1);

    printTableHeader(
        "Fig. 15b: RE raster-pipeline DRAM traffic normalized to Base",
        {"colors", "texels", "prims", "total"});
    auto traffic = printRows(suite, [](const WorkloadResults &w) {
        auto norm = [&](TrafficClass c) {
            return ratio(w.re.traffic[c], w.base.traffic[c]);
        };
        return std::vector<double>{
            norm(TrafficClass::Colors), norm(TrafficClass::Texels),
            norm(TrafficClass::Primitives),
            ratio(rasterBytes(w.re), rasterBytes(w.base))};
    });
    printTableRow("AVG", {0, 0, 0, mean(traffic[3])});

    // The paper's premise: ~75% of all GPU memory accesses come from
    // the raster stages (textures + colors + primitives).
    std::vector<double> rasterShare;
    for (const WorkloadResults &w : suite)
        rasterShare.push_back(
            pct(rasterBytes(w.base), w.base.traffic.total()));
    std::printf("\nRaster-stage share of baseline DRAM traffic AVG: "
                "%.1f%% (paper: ~75%%)\n", mean(rasterShare));
}

/**
 * Fig. 16: fragments shaded under RE and under PFR-aided Fragment
 * Memoization (2048-entry 4-way LUT, 32-bit hash without screen
 * coordinates), both normalized to Baseline. Shape: RE shades fewer
 * fragments than memoization on most workloads (it catches all
 * redundant-input tiles, not just the fraction a space-limited LUT
 * retains across the even/odd frame pairing), with hop as the notable
 * exception (large plain-black regions keep LUT pressure low).
 */
void
printFig16(const Suite &suite)
{
    printTableHeader("Fig. 16: fragments shaded, normalized to Baseline",
                     {"RE", "Memo", "memoReuse%"});
    auto col = printRows(suite, [](const WorkloadResults &w) {
        const double base = static_cast<double>(w.base.fragmentsShaded);
        return std::vector<double>{
            w.re.fragmentsShaded / base, w.memo.fragmentsShaded / base,
            pct(w.memo.fragmentsMemoReused,
                w.memo.fragmentsShaded + w.memo.fragmentsMemoReused)};
    });
    printTableRow("AVG", {mean(col[0]), mean(col[1]), 0.0});
    std::printf("\n(lower is better; paper: RE below Memo on most "
                "workloads)\n");
}

/**
 * Fig. 17: RE vs Transaction Elimination, execution cycles (a) and
 * energy (b), both normalized to Baseline. Shape: TE saves ~9% energy
 * on average (flush elision only, zero cycle benefit modelled); RE
 * saves ~43% and is much faster.
 */
void
printFig17(const Suite &suite)
{
    printTableHeader("Fig. 17a: normalized execution cycles",
                     {"TE", "RE"});
    auto cyc = printRows(suite, [](const WorkloadResults &w) {
        const double base = static_cast<double>(w.base.totalCycles());
        return std::vector<double>{w.te.totalCycles() / base,
                                   w.re.totalCycles() / base};
    });
    printTableRow("AVG", {mean(cyc[0]), mean(cyc[1])});

    printTableHeader("Fig. 17b: normalized energy", {"TE", "RE"});
    auto energy = printRows(suite, [](const WorkloadResults &w) {
        const double base = w.base.energy.total();
        return std::vector<double>{w.te.energy.total() / base,
                                   w.re.energy.total() / base};
    });
    printTableRow("AVG", {mean(energy[0]), mean(energy[1])});
    std::printf("\nTE energy saving AVG: %.1f%% | RE energy saving AVG:"
                " %.1f%% (paper: ~9%% vs ~43%%)\n",
                100.0 * (1.0 - mean(energy[0])),
                100.0 * (1.0 - mean(energy[1])));
}

/**
 * Section V overheads of Rendering Elimination: geometry-stall cycles
 * from OT-queue overflow (paper: 0.64% avg), RE hardware energy
 * (paper: <0.5% of GPU energy), area of the added structures (paper:
 * <1%), and the worst case, the redundancy-free mst (<1% slowdown).
 */
void
printOverheads(const Suite &suite)
{
    printTableHeader("RE overheads per workload",
                     {"geomStall%", "reEnergy%", "mstSlowdown%"});
    double mstSlowdown = 0;
    auto col = printRows(suite, [&](const WorkloadResults &w) {
        const double stall = 100.0 * w.re.signatureStallCycles
            / std::max<Cycles>(1, w.re.geometryCycles);
        // RE hardware energy: LUTs + Signature Buffer + OT + bitmap.
        const EnergyParams p;
        const StatRegistry &s = w.re.stats;
        const double reHw = s.counter("re.lutAccesses") * p.crcLutAccess
            + s.counter("re.sigBufferAccesses") * p.signatureBufferAccess
            + s.counter("re.otPushes") * p.otQueuePush
            + s.counter("re.bitmapAccesses") * p.bitmapAccess;
        double slow = 0;
        if (w.alias == "mst") {
            slow = 100.0 * (static_cast<double>(w.re.totalCycles())
                            / w.base.totalCycles() - 1.0);
            mstSlowdown = slow;
        }
        return std::vector<double>{
            stall, 100.0 * reHw / w.base.energy.total(), slow};
    });
    printTableRow("AVG", {mean(col[0]), mean(col[1]), 0.0});

    // Area is quoted for the Table I chip.
    const AreaReport area = AreaReport::forConfig(GpuConfig());
    std::printf("\nArea: RE adds %.1f KB SRAM (LUTs %.0f KB + SigBuf "
                "%.1f KB + OT/bitmap %.2f KB) = %.2f%% of the baseline "
                "SRAM proxy (paper: <1%%)\n",
                (area.crcLutBytes + area.signatureBufferBytes
                 + area.otQueueBytes + area.bitmapBytes) / 1024.0,
                area.crcLutBytes / 1024.0,
                area.signatureBufferBytes / 1024.0,
                (area.otQueueBytes + area.bitmapBytes) / 1024.0,
                100.0 * area.overheadFraction());
    std::printf("mst slowdown: %.2f%% (paper: <1%%)\n", mstSlowdown);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const ExperimentScale scale = ExperimentScale::fromArgs(argc, argv);
    const SimResult desktop = runDesktop(scale);
    const Suite suite = runSuite(scale);

    printFig1(desktop, suite);
    printFig2(suite);
    printFig14(suite);
    printFig15(suite);
    printFig16(suite);
    printFig17(suite);
    printOverheads(suite);
    return 0;
}
