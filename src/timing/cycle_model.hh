/**
 * @file
 * Cycle-approximate timing model of the TBR pipeline.
 *
 * Stage throughputs come from Table I. Within the Geometry Pipeline
 * and within each tile of the Raster Pipeline, stages are pipelined:
 * the stage time is the max of the per-stage busy times rather than
 * their sum. Per tile, compute competes with the DRAM bandwidth the
 * tile's misses and flushes consume; the tile's time is the max of
 * both (compute-bound vs bandwidth-bound).
 *
 * The Signature Unit's overhead model follows Section V: its work is
 * overlapped with the Polygon List Builder behind the 16-entry
 * Overlapped-Tiles Queue and only stalls geometry when a primitive
 * covers so many tiles that the queue overflows.
 */

#ifndef REGPU_TIMING_CYCLE_MODEL_HH
#define REGPU_TIMING_CYCLE_MODEL_HH

#include "common/config.hh"
#include "gpu/pipeline.hh"
#include "timing/memsystem.hh"

namespace regpu
{

/**
 * Computes frame cycle counts from functional-run products.
 */
class CycleModel
{
  public:
    explicit CycleModel(const GpuConfig &_config) : config(_config) {}

    /**
     * Geometry Pipeline time for a frame.
     * @param result    the functional frame result
     * @param vertexMisses vertex-cache misses this frame
     * @param avgDramLatency average DRAM latency observed
     */
    Cycles geometryCycles(const FrameResult &result, u64 vertexMisses,
                          double avgDramLatency) const;

    /**
     * Raster Pipeline time for one rendered tile.
     * @param ts       per-tile functional stats
     * @param tileDramBytes DRAM bytes the tile's activity generated
     * @param texelStalls exposed texture-miss stall cycles for the tile
     */
    Cycles tileCycles(const TileRenderStats &ts, u64 tileDramBytes,
                      Cycles texelStalls) const;

    /** Per-skipped-tile overhead: Signature Buffer read + compare. */
    Cycles skippedTileCycles() const { return 2; }

  private:
    const GpuConfig &config;
};

} // namespace regpu

#endif // REGPU_TIMING_CYCLE_MODEL_HH
