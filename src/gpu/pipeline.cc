#include "gpu/pipeline.hh"

#include <optional>
#include <thread>

#include "common/logging.hh"
#include "gpu/memiface.hh"
#include "gpu/tile_pool.hh"
#include "obs/obs.hh"

namespace regpu
{

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
    // One loop, two schedules (docs/ARCHITECTURE.md): phase1(t) renders
    // tile t into a private TileTask, merge(t) folds everything
    // order-sensitive back on this thread in strict tile order. The pool
    // runs phase 1 on tileJobs workers, each recording its memory
    // accesses for the merge to replay. The direct schedule runs
    // phase1(t) and merge(t) inline, back to back: it renders straight
    // into the shared MemSystem, makes the counted render decision once
    // instead of peek-then-confirm, and reuses one task slot so the color
    // vector's capacity survives across tiles. Both produce the per-tile
    // stream [counted decision][render traffic][flush], which keeps
    // output bit-identical across --tile-jobs values.
    const u32 numTiles = config.numTiles();
    result.tiles.resize(numTiles);
    FragmentMemoClient *memo = hooks ? hooks->memoClient() : nullptr;
    const bool poolSafe = !hooks || (hooks->tileWorkersSafe() && !memo);
    if (tileJobs > 1 && !poolSafe)
        warnOnce("--tile-jobs ", tileJobs, " requested but the attached "
                 "technique is not tile-parallel-safe; rendering tiles "
                 "serially");
    const bool direct = tileJobs <= 1 || !poolSafe;
    {
        // Scoped so the per-frame tile tasks are freed inside the
        // raster span, before frameEnd(), which ends the raster phase
        // for anyone timing the hooks.
        ObsScope rasterSpan("gpu", "raster", "frame",
                            static_cast<i64>(frameCounter), "tiles",
                            static_cast<i64>(numTiles));
        struct TileTask
        {
            std::vector<Color> colors;
            MemEventRecorder memEvents;
            TileRenderStats renderStats;
            u32 preparedFlush = 0;
            bool render = true;
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
            task.render = !hooks
                || (direct ? hooks->shouldRenderTile(tile)
                           : hooks->queryRenderTile(tile));
            if (task.render) {
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
                                commands.clearColor, task.colors, false);
                task.equalColors = fb.tileEquals(tile, task.colors);
            }
        };

        auto merge = [&](TileId tile) {
            TileTask &task = taskFor(tile);
            TileOutcome &out = result.tiles[tile];
            // The pool's authoritative decision, with its counted
            // buffer reads and stats, cross-checked against the
            // prediction phase 1 rendered under.
            const bool render = (direct || !hooks)
                ? task.render
                : hooks->shouldRenderTile(tile);
            REGPU_ASSERT(render == task.render,
                         "queryRenderTile diverged from "
                         "shouldRenderTile for tile ", tile,
                         " - the hooks violate the tileWorkersSafe "
                         "contract");
            out.rendered = render;

            if (render) {
                // The MemSystem's cache state depends on the access
                // order, which is why replay happens here and not on
                // the worker.
                if (!direct && mem)
                    task.memEvents.replay(*mem);
                const TileRenderStats &ts = task.renderStats;
                stats.inc("raster.fragmentsGenerated", ts.fragmentsGenerated);
                stats.inc("raster.fragmentsEarlyZKilled",
                          ts.fragmentsEarlyZKilled);
                stats.inc("raster.fragmentsShaded", ts.fragmentsShaded);
                stats.inc("raster.fragmentsMemoReused",
                          ts.fragmentsMemoReused);
                stats.inc("raster.shaderInstructions", ts.shaderInstructions);
                stats.inc("raster.texelFetches", ts.texelFetches);
                stats.inc("raster.blendOps", ts.blendOps);
                stats.inc("raster.primitivesFetched", ts.primitivesFetched);
                out.stats = ts;
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
                    stats.inc("raster.tilesFlushed");
                } else {
                    stats.inc("raster.tileFlushesEliminated");
                }
                stats.inc("raster.tilesRendered");
            } else {
                // Rendering Elimination bypass: the Back Buffer
                // already holds the (believed-identical) colors.
                out.flushed = false;
                stats.inc("raster.tilesEliminated");
                if (groundTruth) {
                    out.equalColors = task.equalColors;
                    if (!out.equalColors)
                        stats.inc("re.falsePositives");
                }
            }
        };

        runOrdered(numTiles, direct ? 1 : tileJobs, phase1, merge,
                   "tileWorker");
    }

    if (hooks)
        hooks->frameEnd();

    fb.swap();
    frameCounter++;
    stats.inc("frames");
    return result;
}

} // namespace regpu
