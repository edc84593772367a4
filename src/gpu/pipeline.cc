#include "gpu/pipeline.hh"

#include <optional>
#include <thread>

#include "common/logging.hh"
#include "gpu/memiface.hh"
#include "gpu/tile_pool.hh"
#include "obs/obs.hh"

namespace regpu
{

void
FrameTotals::addRendered(const TileRenderStats &ts)
{
    fragmentsGenerated += ts.fragmentsGenerated;
    fragmentsEarlyZKilled += ts.fragmentsEarlyZKilled;
    fragmentsShaded += ts.fragmentsShaded;
    fragmentsMemoReused += ts.fragmentsMemoReused;
    shaderInstructions += ts.shaderInstructions;
    texelFetches += ts.texelFetches;
    blendOps += ts.blendOps;
    primitivesFetched += ts.primitivesFetched;
    tilesRendered++;
}

void
FrameTotals::charge(StatRegistry &stats) const
{
    if (tilesRendered) {
        stats.inc("raster.fragmentsGenerated", fragmentsGenerated);
        stats.inc("raster.fragmentsEarlyZKilled", fragmentsEarlyZKilled);
        stats.inc("raster.fragmentsShaded", fragmentsShaded);
        stats.inc("raster.fragmentsMemoReused", fragmentsMemoReused);
        stats.inc("raster.shaderInstructions", shaderInstructions);
        stats.inc("raster.texelFetches", texelFetches);
        stats.inc("raster.blendOps", blendOps);
        stats.inc("raster.primitivesFetched", primitivesFetched);
        stats.inc("raster.tilesRendered", tilesRendered);
    }
    if (tilesFlushed)
        stats.inc("raster.tilesFlushed", tilesFlushed);
    if (tileFlushesEliminated)
        stats.inc("raster.tileFlushesEliminated", tileFlushesEliminated);
    if (tilesEliminated)
        stats.inc("raster.tilesEliminated", tilesEliminated);
    if (falsePositives)
        stats.inc("re.falsePositives", falsePositives);
}

GraphicsPipeline::GraphicsPipeline(const GpuConfig &_config,
                                   StatRegistry &_stats, MemTraceSink *_mem,
                                   const std::vector<Texture> &_textures)
    : config(_config), stats(_stats), mem(_mem), textures(_textures),
      geometry(_config, _stats, _mem), plb(_config, _stats, _mem),
      fb(_config)
{
}

void
GraphicsPipeline::setTileJobs(unsigned jobs)
{
    REGPU_ASSERT(jobs >= 1, "tile-jobs must be >= 1 (CLI parsers "
                            "reject 0 before reaching here)");
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw && jobs > hw)
        warnOnce("--tile-jobs ", jobs, " exceeds hardware concurrency (",
                 hw, "); output is identical but the extra workers "
                 "only add scheduling overhead");
    tileJobs = jobs;
}

FrameResult
GraphicsPipeline::renderFrame(const FrameCommands &commands,
                              bool groundTruth)
{
    FrameResult result;
    result.frameIndex = frameCounter;

    const bool reSafe = !commands.globalStateChanged;
    if (hooks)
        hooks->frameBegin(frameCounter, reSafe);

    // ---- Geometry Pipeline + Tiling Engine -----------------------------
    plb.beginFrame(result.binned);
    if (hooks) {
        plb.setObserver([this](const Primitive &p, const DrawCall &d,
                               const std::vector<TileId> &tiles) {
            hooks->onPrimitiveBinned(p, d, tiles);
        });
    } else {
        plb.setObserver({});
    }

    {
        ObsScope geometrySpan("gpu", "geometry", "frame",
                              static_cast<i64>(frameCounter), "draws",
                              static_cast<i64>(commands.draws.size()));
        for (u32 d = 0; d < commands.draws.size(); d++) {
            const DrawCall &draw = commands.draws[d];
            if (hooks)
                hooks->onDrawcallConstants(d, draw);
            GeometryOutput geo = [&] {
                ObsScope vertexSpan("gpu", "vertex", "draw",
                                    static_cast<i64>(d));
                return geometry.process(draw);
            }();
            for (Primitive &p : geo.primitives)
                p.drawIndex = d;
            result.verticesShaded += geo.verticesShaded;
            result.trianglesAssembled += geo.primitives.size();
            ObsScope binningSpan("gpu", "binning", "draw",
                                 static_cast<i64>(d));
            plb.binDrawcall(draw, geo.primitives, result.binned);
        }
    }

    if (hooks)
        hooks->geometryDone();

    // ---- Raster Pipeline, tile by tile ---------------------------------
    // One loop, two schedules (docs/ARCHITECTURE.md). First the counted
    // render decision for every tile, in tile order, on this thread: it
    // reads only signatures geometry has finished writing and makes no
    // memory access, so taking it up front leaves the MemSystem's event
    // stream unchanged. Then phase1(t) renders tile t into a private
    // TileTask and merge(t) folds everything order-sensitive back on
    // this thread in strict tile order. The pool runs phase 1 on
    // tileJobs workers, each recording its memory accesses for the
    // merge to replay. The direct schedule runs phase1(t) and merge(t)
    // inline, back to back: it renders straight into the shared
    // MemSystem and reuses one task slot so the color vector's capacity
    // survives across tiles. Both produce the per-tile stream [render
    // traffic][flush], which keeps output bit-identical across
    // --tile-jobs values. The merge sums each tile's counts into the
    // frame's FrameTotals, which reach the StatRegistry once, after
    // the last merge, and return in FrameResult::totals.
    const u32 numTiles = config.numTiles();
    result.tiles.resize(numTiles);
    FragmentMemoClient *memo = hooks ? hooks->memoClient() : nullptr;
    const bool direct = tileJobs <= 1;
    {
        // Scoped so the per-frame tile tasks are freed inside the
        // raster span, before frameEnd(), which ends the raster phase
        // for anyone timing the hooks.
        ObsScope rasterSpan("gpu", "raster", "frame",
                            static_cast<i64>(frameCounter), "tiles",
                            static_cast<i64>(numTiles));
        if (hooks)
            for (TileId tile = 0; tile < numTiles; tile++)
                result.tiles[tile].rendered = hooks->shouldRenderTile(tile);

        struct TileTask
        {
            std::vector<Color> colors;
            MemEventRecorder memEvents;
            TileRenderStats renderStats;
            u32 preparedFlush = 0;
            bool equalColors = false;
        };
        std::vector<TileTask> tasks(direct ? 1u : numTiles);
        auto taskFor = [&](TileId tile) -> TileTask & {
            return tasks[direct ? 0 : tile];
        };

        auto phase1 = [&](TileId tile) {
            // Tile spans (raster + shade fused per tile) are per-tile
            // detail: numTiles events per frame, gated separately.
            std::optional<ObsScope> tileSpan;
            if (obsTileDetail())
                tileSpan.emplace("gpu", "tile", "tile",
                                 static_cast<i64>(tile));
            TileTask &task = taskFor(tile);
            if (result.tiles[tile].rendered) {
                TileRenderer renderer(config,
                                      direct ? mem : &task.memEvents,
                                      textures, memo);
                task.renderStats = renderer.renderTile(
                    tile, result.binned, commands.draws,
                    commands.clearColor, task.colors);
                // Per-tile-disjoint Back Buffer regions, written only
                // by this tile's own (strictly later) merge: safe.
                task.equalColors = fb.tileEquals(tile, task.colors);
                if (hooks)
                    task.preparedFlush =
                        hooks->prepareFlushTile(tile, task.colors);
            } else if (groundTruth) {
                // Shadow render for ground truth: no memory traffic,
                // and its stats are dropped.
                TileRenderer(config, nullptr, textures)
                    .renderTile(tile, result.binned, commands.draws,
                                commands.clearColor, task.colors);
                task.equalColors = fb.tileEquals(tile, task.colors);
            }
        };

        FrameTotals &totals = result.totals;
        auto merge = [&](TileId tile) {
            TileTask &task = taskFor(tile);
            TileOutcome &out = result.tiles[tile];
            if (out.rendered) {
                // The MemSystem's cache state depends on the access
                // order, which is why replay happens here and not on
                // the worker.
                if (!direct && mem)
                    task.memEvents.replay(*mem);
                out.stats = task.renderStats;
                totals.addRendered(out.stats);
                out.equalColors = task.equalColors;

                const bool flush = !hooks
                    || hooks->shouldFlushTilePre(tile, task.colors,
                                                 task.preparedFlush);
                out.flushed = flush;
                if (flush) {
                    fb.writeTile(tile, task.colors);
                    if (mem)
                        mem->colorFlush(fb.tileAddr(tile),
                                        fb.tileBytes(tile));
                    totals.tilesFlushed++;
                } else {
                    totals.tileFlushesEliminated++;
                }
            } else {
                // Rendering Elimination bypass: the Back Buffer
                // already holds the (believed-identical) colors.
                out.flushed = false;
                totals.tilesEliminated++;
                if (groundTruth) {
                    out.equalColors = task.equalColors;
                    if (!out.equalColors)
                        totals.falsePositives++;
                }
            }
        };

        runOrdered(numTiles, tileJobs, phase1, merge, "tileWorker");
        // Once per frame, after the last merge and before frameEnd():
        // Fragment Memoization's frameEnd reads this frame's raster.*
        // deltas.
        totals.charge(stats);
    }

    if (hooks)
        hooks->frameEnd();

    fb.swap();
    frameCounter++;
    stats.inc("frames");
    return result;
}

} // namespace regpu
