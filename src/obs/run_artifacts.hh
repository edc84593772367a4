/**
 * @file
 * Per-run observability artifacts: frame-by-frame stat time-series
 * (JSON-Lines) and per-tile heatmaps (CSV + PPM) for one Simulator
 * run.
 *
 * The writer is pure output — it only *reads* simulator state at
 * frame boundaries, so producing artifacts cannot perturb results:
 * a run with an --obs-dir emits CSV/stdout bit-identical to one
 * without.
 *
 * Artifacts under <dir>, all prefixed with <tag> (typically
 * "<workload>.<technique>"):
 *   <tag>.frames.jsonl        one JSON object per frame with the
 *                             frame's cycle split, DRAM bytes and the
 *                             per-frame *delta* of every StatRegistry
 *                             counter (Fig. 1-style trajectories
 *                             instead of run totals)
 *   <tag>.heat.re.csv         long-format tile map, one row per
 *                             (frame, tile): 1 = skipped by RE
 *   <tag>.heat.te.csv         1 = rendered but flush elided by TE
 *   <tag>.heat.dram.csv       per-tile DRAM bytes (same attribution
 *                             the cycle model charges)
 *   <tag>.<m>.f####.ppm       per-frame P6 grayscale maps of metric
 *                             m in {re, te, dram}, one pixel per tile
 *                             (extends Fig. 2 from a fraction to a
 *                             picture)
 *   <tag>.<m>.total.ppm       whole-run accumulation of metric m
 */

#ifndef REGPU_OBS_RUN_ARTIFACTS_HH
#define REGPU_OBS_RUN_ARTIFACTS_HH

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace regpu
{

class RunObsWriter
{
  public:
    /** Opens the artifact streams; fatal() when @p dir cannot be
     *  created or a file cannot be opened. */
    RunObsWriter(const std::string &dir, const std::string &tag,
                 const GpuConfig &config);
    ~RunObsWriter();

    RunObsWriter(const RunObsWriter &) = delete;
    RunObsWriter &operator=(const RunObsWriter &) = delete;

    /** Reset the per-tile maps for frame @p frame. */
    void beginFrame(u64 frame);

    /** Record one tile's outcome (call once per tile per frame).
     *  @p dramBytes is the tile's attributed share of the frame's
     *  raster-class DRAM traffic. */
    void tileOutcome(TileId tile, bool rendered, bool flushed,
                     u64 dramBytes);

    /** Emit the frame's JSONL line, heat CSV rows and PPM maps.
     *  @p stats is snapshotted; deltas against the previous frame's
     *  snapshot are what the JSONL line carries. */
    void endFrame(u64 frame, const StatRegistry &stats,
                  Cycles geometryCycles, Cycles rasterCycles,
                  u64 dramBytes);

    /** Write the whole-run total PPMs and close every stream (also
     *  run by the destructor). */
    void finish();

  private:
    void writeHeatRows(std::ofstream &os, u64 frame,
                       const std::vector<u64> &vals);
    void writePpm(const std::string &path,
                  const std::vector<u64> &vals) const;
    std::string ppmPath(const char *metric, u64 frame) const;

    std::string dir_;
    std::string tag_;
    u32 tilesX_;
    u32 tilesY_;

    std::ofstream framesJsonl;
    std::ofstream heatRe;
    std::ofstream heatTe;
    std::ofstream heatDram;

    std::vector<u64> curRe, curTe, curDram;
    std::vector<u64> totRe, totTe, totDram;

    std::map<std::string, u64> prevCounters;

    bool finished = false;
};

} // namespace regpu

#endif // REGPU_OBS_RUN_ARTIFACTS_HH
