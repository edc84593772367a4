/**
 * @file
 * Top-level simulator: runs a Scene for N frames under a chosen
 * technique (Baseline / RE / TE / Memo), producing the cycle, energy,
 * traffic and tile-classification statistics every experiment in the
 * paper's evaluation consumes.
 */

#ifndef REGPU_SIM_SIMULATOR_HH
#define REGPU_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "gpu/pipeline.hh"
#include "memo/fragment_memo.hh"
#include "obs/run_artifacts.hh"
#include "power/energy_model.hh"
#include "re/rendering_elimination.hh"
#include "scene/frame_source.hh"
#include "scene/scene.hh"
#include "te/transaction_elimination.hh"
#include "timing/cycle_model.hh"
#include "timing/memsystem.hh"

namespace regpu
{

/** Tile classification counts accumulated over a run (Fig. 15a). */
struct TileClassCounts
{
    u64 comparedTiles = 0;       //!< tiles with a valid previous frame
    u64 equalColorsEqualInputs = 0;
    u64 equalColorsDiffInputs = 0;  //!< false negatives
    u64 diffColorsDiffInputs = 0;
    u64 diffColorsEqualInputs = 0;  //!< false positives (should be 0)
};

/** Aggregated results of one simulation run. */
struct SimResult
{
    std::string workload;
    Technique technique = Technique::Baseline;
    u64 frames = 0;

    // Cycles (Fig. 14a / 17a).
    Cycles geometryCycles = 0;
    Cycles rasterCycles = 0;
    Cycles totalCycles() const { return geometryCycles + rasterCycles; }

    // Energy (Fig. 14b / 17b).
    EnergyBreakdown energy;

    // Memory traffic (Fig. 15b), raster-pipeline classes.
    DramTraffic traffic;

    // Tile accounting (Fig. 2 / 15a).
    TileClassCounts tileClasses;
    u64 tilesTotal = 0;
    u64 tilesRendered = 0;
    u64 tilesSkippedByRe = 0;
    u64 tileFlushesEliminated = 0;

    // Fragment accounting (Fig. 16).
    u64 fragmentsShaded = 0;
    u64 fragmentsMemoReused = 0;

    // Per-frame color-equality vs the immediately preceding frame
    // (Fig. 2 definition: consecutive frames, regardless of the swap
    // chain), averaged over the run.
    double equalTilesConsecutivePct = 0;

    // Overheads.
    Cycles signatureStallCycles = 0;
    u64 reFalsePositives = 0;

    // Raw stat registry snapshot for detailed inspection.
    StatRegistry stats;
};

/** Options controlling a run. */
struct SimOptions
{
    u64 frames = 30;
    HashKind hashKind = HashKind::Crc32;

    /** Intra-frame tile worker count (--tile-jobs). Execution knob
     *  only: results are bit-identical for every value (the tile
     *  pool's phase-1/merge split, docs/ARCHITECTURE.md), so unlike
     *  everything in GpuConfig it does not identify an experiment. */
    unsigned tileJobs = 1;

    /** When non-empty, write per-run observability artifacts (frame
     *  time-series JSONL + tile heatmaps, obs/run_artifacts.hh) into
     *  this directory. Artifacts only *read* simulator state: results
     *  are bit-identical with or without them. */
    std::string obsDir;
    /** Artifact filename prefix; defaults to
     *  "<workload>.<technique>". Frontends running several cells into
     *  one directory must make it unique per cell. */
    std::string obsTag;
};

/**
 * Runs one (frame source, technique) pair. The source is either a
 * live Scene or a TraceScene replaying a recorded capture; the two
 * produce bit-identical results for identical command streams.
 */
class Simulator
{
  public:
    Simulator(const FrameSource &scene, const GpuConfig &config,
              const SimOptions &options = {});

    /** Execute the configured number of frames. */
    SimResult run();

    /** Access the pipeline (tests drive frames manually). */
    GraphicsPipeline &pipeline() { return *pipe; }

    /** Render a single frame and return its functional result. */
    FrameResult stepFrame(u64 frameIndex);

  private:
    const FrameSource &scene;
    GpuConfig config;  //!< local copy (technique-specific tweaks)
    SimOptions options;

    StatRegistry statsReg;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<GraphicsPipeline> pipe;
    std::unique_ptr<RenderingElimination> re;
    std::unique_ptr<TransactionElimination> te;
    std::unique_ptr<FragmentMemoization> memo;
    CycleModel cycles;
    EnergyModel energy;
    std::unique_ptr<RunObsWriter> obsWriter;  //!< only with obsDir set
};

} // namespace regpu

#endif // REGPU_SIM_SIMULATOR_HH
