/**
 * @file
 * Top-level per-frame orchestration of the TBR graphics pipeline
 * (Fig. 4 of the paper), with the hook points Rendering Elimination,
 * Transaction Elimination and Fragment Memoization attach to.
 */

#ifndef REGPU_GPU_PIPELINE_HH
#define REGPU_GPU_PIPELINE_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "gpu/binning.hh"
#include "gpu/framebuffer.hh"
#include "gpu/geometry.hh"
#include "gpu/raster.hh"

namespace regpu
{

class MemTraceSink;

/**
 * Hook points a redundancy-elimination technique implements. Default
 * implementations reproduce the baseline pipeline (render everything,
 * flush everything).
 */
class PipelineHooks
{
  public:
    virtual ~PipelineHooks() = default;

    /** Frame is starting. @param reSafe false when the driver saw
     *  global-state uploads and techniques must disable themselves. */
    virtual void frameBegin(u64 /*frameIndex*/, bool /*reSafe*/) {}

    /** The Command Processor resolved a drawcall's constants. */
    virtual void
    onDrawcallConstants(u32 /*drawIndex*/, const DrawCall & /*draw*/)
    {}

    /** The Polygon List Builder sorted one primitive. */
    virtual void
    onPrimitiveBinned(const Primitive & /*prim*/, const DrawCall & /*draw*/,
                      const std::vector<TileId> & /*tiles*/)
    {}

    /** Geometry done; Raster Pipeline about to start visiting tiles. */
    virtual void geometryDone() {}

    /** Should this tile's Raster Pipeline execution run at all?
     *  (Rendering Elimination answers false for redundant tiles.)
     *  The counted decision: called once per tile per frame, in tile
     *  order, on the thread that called renderFrame, after
     *  geometryDone and before any tile renders. */
    virtual bool shouldRenderTile(TileId /*tile*/) { return true; }

    /** Tile rendered; should its colors be flushed to the Frame
     *  Buffer? (Transaction Elimination answers false on signature
     *  match.) */
    virtual bool
    shouldFlushTile(TileId /*tile*/, const std::vector<Color> & /*colors*/)
    {
        return true;
    }

    /** Frame fully processed (before buffer swap). */
    virtual void frameEnd() {}

    /** Memoization hook, if the technique provides one. */
    virtual FragmentMemoClient *memoClient() { return nullptr; }

    // ---- Tile worker pool contract (docs/ARCHITECTURE.md) --------------
    //
    // Every frame's tiles go through one raster loop: the render
    // decisions above, then phase 1 renders a tile into private state,
    // and a merge in strict tile order counts and flushes it. Both
    // schedules hand prepareFlushTile's phase-1 value to
    // shouldFlushTilePre in the merge. For every technique, phase 1
    // runs on --tile-jobs pool workers, or inline before each merge
    // when --tile-jobs is 1 (the direct schedule).

    /** Nothing in src/ calls these two; they stay declared only
     *  because perfbench's TimedHooks forwards them (ROADMAP item 2). */
    virtual bool tileWorkersSafe() const { return false; }
    virtual bool queryRenderTile(TileId /*tile*/) { return true; }

    /**
     * Phase-1 half of the flush decision: any pure per-tile
     * computation over the rendered colors (Transaction Elimination
     * hashes them here, on the worker that rendered them). The value
     * is handed back verbatim to shouldFlushTilePre in the merge
     * phase. Pure and thread-safe for distinct tiles.
     */
    virtual u32
    prepareFlushTile(TileId /*tile*/, const std::vector<Color> & /*colors*/)
    {
        return 0;
    }

    /**
     * Merge-phase flush decision, given prepareFlushTile's result:
     * this is where counted buffer accesses, stats and energy charges
     * belong. Default forwards to shouldFlushTile so techniques
     * without a precomputable part need not know the split exists.
     */
    virtual bool
    shouldFlushTilePre(TileId tile, const std::vector<Color> &colors,
                       u32 /*prepared*/)
    {
        return shouldFlushTile(tile, colors);
    }
};

/** Outcome of one tile in one frame (classification + accounting). */
struct TileOutcome
{
    bool rendered = true;       //!< raster pipeline executed
    bool flushed = true;        //!< colors written to the Frame Buffer
    bool equalColors = false;   //!< ground truth: same colors as the
                                //!< comparison frame in the Back Buffer
    TileRenderStats stats;      //!< zeros when skipped
};

/**
 * One frame's raster counts: every merged tile's TileRenderStats and
 * outcome, summed in the merge. The one source of these counts:
 * charge() writes them to the StatRegistry once per frame, and the
 * Simulator reads them from FrameResult::totals.
 */
struct FrameTotals
{
    u64 fragmentsGenerated = 0;
    u64 fragmentsEarlyZKilled = 0;
    u64 fragmentsShaded = 0;
    u64 fragmentsMemoReused = 0;
    u64 shaderInstructions = 0;
    u64 texelFetches = 0;
    u64 blendOps = 0;
    u64 primitivesFetched = 0;
    u64 tilesRendered = 0;
    u64 tilesFlushed = 0;
    u64 tileFlushesEliminated = 0;
    u64 tilesEliminated = 0;   //!< skipped by the render decision
    u64 falsePositives = 0;    //!< skipped although the colors changed

    /** Add one rendered tile's stats. */
    void addRendered(const TileRenderStats &ts);

    /** Charge each counter that a per-tile charge would have created:
     *  the per-fragment ones when any tile rendered, each tile count
     *  when it is non-zero. The registry's key set is then the one
     *  per-tile charges leave. The only writer of raster.*. */
    void charge(StatRegistry &stats) const;
};

/** Per-frame simulation products. */
struct FrameResult
{
    u64 frameIndex = 0;
    BinnedFrame binned;
    std::vector<TileOutcome> tiles;
    FrameTotals totals;
    u64 verticesShaded = 0;
    u64 trianglesAssembled = 0;
    /** Skipped tiles whose ground truth came from the tile's record
     *  instead of a shadow render. A host-side count: no StatRegistry
     *  counter and no ledger column. */
    u64 groundTruthFromRecord = 0;
    /** Rendered tiles served from the tile's record instead of
     *  rasterized. Host-side, like groundTruthFromRecord. */
    u64 renderedFromRecord = 0;
};

/**
 * The full GPU: owns the Frame Buffer and runs frames through
 * geometry, binning and per-tile rasterisation, consulting the
 * attached hooks.
 */
class GraphicsPipeline
{
  public:
    GraphicsPipeline(const GpuConfig &config, StatRegistry &stats,
                     MemTraceSink *mem,
                     const std::vector<Texture> &textures);

    /** Attach technique hooks (nullptr = baseline). */
    void setHooks(PipelineHooks *hooks_) { hooks = hooks_; }

    /**
     * Intra-frame tile worker count (default 1 = direct schedule).
     * Purely an execution knob: output is bit-identical for every
     * value, which is why it lives here and not in GpuConfig.
     */
    void setTileJobs(unsigned jobs);

    /**
     * Render one frame.
     * @param commands  the frame's drawcalls
     * @param groundTruth when true, skipped tiles are shadow-rendered
     *        (no cost charged) so TileOutcome::equalColors is exact
     *        for every tile - needed by Fig. 15a and correctness tests.
     *        Any tile whose inputs equal its record's, rendered or
     *        skipped, takes the record's colors instead of a render;
     *        a rendered one also replays the record's memory events.
     */
    FrameResult renderFrame(const FrameCommands &commands,
                            bool groundTruth = true);

    FrameBuffer &frameBuffer() { return fb; }
    const GpuConfig &gpuConfig() const { return config; }

  private:
    /** Everything renderTile reads of one listed primitive besides
     *  the tile id and the pipeline's constants, as 4-byte fields
     *  only, so memcmp compares exact bits. */
    struct PrimInputs
    {
        ShadedVertex v[3];
        Vec4 tint;
        u32 shader;
        i32 textureId;
        u32 blendMode;
        u32 depthTestWrite;  //!< depthTest | depthWrite << 1
    };
    static_assert(sizeof(PrimInputs)
                      == 3 * sizeof(ShadedVertex) + sizeof(Vec4) + 16,
                  "no padding bytes");

    /**
     * A tile's last render: its colors, stats and texel fetches, and
     * the key of what it read, the clear color and its PrimRef list as
     * indices into the inputs of the frame that wrote it. Valid only
     * in the next frame, while those inputs are prevInputs.
     */
    struct TileRecord
    {
        u64 frame = 0;          //!< frameCounter of the writing frame
        Color clearColor;
        std::vector<u32> prims;
        std::vector<Color> colors;
        TileRenderStats stats;
        TexelCapture texels;
    };

    const GpuConfig &config;
    StatRegistry &stats;
    MemTraceSink *mem;
    const std::vector<Texture> &textures;
    PipelineHooks *hooks = nullptr;

    // Per-tile records (docs/ARCHITECTURE.md, "Phase 1"): kept only
    // without a memo client, and written only by a tile's own phase 1
    // and merge. inputs is this frame's PrimInputs per binned
    // primitive, prevInputs the previous frame's, built before and
    // swapped after the tile loop.
    std::vector<TileRecord> records;
    std::vector<PrimInputs> inputs;
    std::vector<PrimInputs> prevInputs;
    std::optional<u64> prevInputsFrame;  //!< frame prevInputs came from

    GeometryPipeline geometry;
    PolygonListBuilder plb;
    FrameBuffer fb;
    u64 frameCounter = 0;
    unsigned tileJobs = 1;
};

} // namespace regpu

#endif // REGPU_GPU_PIPELINE_HH
