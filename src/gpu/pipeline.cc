#include "gpu/pipeline.hh"

#include <algorithm>
#include <cstring>
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
    // TileTask, its texel fetches into a filtered TexelCapture, and
    // merge(t) folds everything order-sensitive back on this thread in
    // strict tile order, sending the tile's memory events from its
    // capture. The pool runs phase 1 on tileJobs workers. The direct
    // schedule runs phase1(t) and merge(t) inline, back to back, and
    // reuses one task slot so its buffers keep their capacity across
    // tiles. Both produce the per-tile stream [render traffic][flush]
    // from the same captures, which keeps output bit-identical across
    // --tile-jobs values. The merge sums each tile's counts into the
    // frame's FrameTotals, which reach the StatRegistry once, after
    // the last merge, and return in FrameResult::totals.
    const u32 numTiles = config.numTiles();
    result.tiles.resize(numTiles);
    FragmentMemoClient *memo = hooks ? hooks->memoClient() : nullptr;
    const bool direct = tileJobs <= 1;

    // Records of each tile's last render (docs/ARCHITECTURE.md, "Phase
    // 1"). Kept by every pipeline without a memo client, whose lookup
    // table a render's colors would depend on. The key of a render is
    // everything renderTile reads besides the tile and the pipeline's
    // constants (the GpuConfig and the immutable textures): the clear
    // color and, per listed primitive in order, its PrimInputs.
    const bool recording = !memo;
    const bool recordsValid = recording && prevInputsFrame
        && *prevInputsFrame + 1 == frameCounter;
    if (recording) {
        if (records.empty()) {
            // Sized on this thread, so that phase 1 renders into them
            // without allocating on a pool worker.
            records.resize(numTiles);
            for (TileRecord &rec : records)
                rec.colors.resize(std::size_t{config.tileWidth}
                                  * config.tileHeight);
        }
        inputs.resize(result.binned.primitives.size());
        for (std::size_t i = 0; i < inputs.size(); i++) {
            const Primitive &prim = result.binned.primitives[i];
            const PipelineState &state =
                commands.draws[prim.drawIndex].state;
            PrimInputs &in = inputs[i];
            std::copy_n(prim.v, 3, in.v);
            in.tint = state.uniforms.tint;
            in.shader = static_cast<u32>(state.shader);
            in.textureId = state.textureId;
            in.blendMode = static_cast<u32>(state.blendMode);
            in.depthTestWrite = u32{state.depthTest}
                | u32{state.depthWrite} << 1;
        }
    } else {
        records.clear();
        prevInputsFrame.reset();
    }
    // Whether tile t's record holds the key of this frame's render of
    // t: written last frame, over inputs equal bit for bit.
    auto recordMatches = [&](TileId tile) {
        const TileRecord &rec = records[tile];
        const std::vector<PrimRef> &list = result.binned.tileLists[tile];
        if (!recordsValid || rec.frame + 1 != frameCounter
            || rec.clearColor != commands.clearColor
            || rec.prims.size() != list.size())
            return false;
        for (std::size_t i = 0; i < list.size(); i++)
            if (std::memcmp(&prevInputs[rec.prims[i]],
                            &inputs[list[i].primIndex],
                            sizeof(PrimInputs)) != 0)
                return false;
        return true;
    };
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
            std::vector<Color> colors;  //!< used when not recording
            TileRenderStats renderStats;
            TexelCapture texels;        //!< a fresh render's
            u32 preparedFlush = 0;
            bool equalColors = false;
            bool fromRecord = false;    //!< served by the tile's record
        };
        std::vector<TileTask> tasks(direct ? 1u : numTiles);
        auto taskFor = [&](TileId tile) -> TileTask & {
            return tasks[direct ? 0 : tile];
        };
        auto colorsOf = [&](TileId tile) -> std::vector<Color> & {
            return recording ? records[tile].colors : taskFor(tile).colors;
        };

        // A rendered tile renders with the memo client, if any, and a
        // skipped one, for its ground truth, as a shadow render: no
        // memo client, stats not charged, events not sent. A matching
        // record serves either with its colors, its stats and its
        // texel capture. A render is a function of the key, the tile
        // and the pipeline's constants, except for the Parameter Buffer
        // addresses and sizes, which come from this frame's PrimRefs.
        auto phase1 = [&](TileId tile) {
            // Tile spans (raster + shade fused per tile) are per-tile
            // detail: numTiles events per frame, gated separately.
            std::optional<ObsScope> tileSpan;
            if (obsTileDetail())
                tileSpan.emplace("gpu", "tile", "tile",
                                 static_cast<i64>(tile));
            const bool rendered = result.tiles[tile].rendered;
            if (!rendered && !groundTruth)
                return;
            TileTask &task = taskFor(tile);
            std::vector<Color> &colors = colorsOf(tile);
            task.fromRecord = recording && recordMatches(tile);
            if (task.fromRecord) {
                task.renderStats = records[tile].stats;
                task.renderStats.parameterBytesRead = 0;
                for (const PrimRef &ref : result.binned.tileLists[tile])
                    task.renderStats.parameterBytesRead += ref.pbBytes;
            } else {
                task.renderStats =
                    TileRenderer(config, textures, rendered ? memo : nullptr)
                        .renderTile(tile, result.binned, commands.draws,
                                    commands.clearColor, colors,
                                    rendered || recording ? &task.texels
                                                          : nullptr);
            }
            // Per-tile-disjoint Back Buffer regions, written only by
            // this tile's own (strictly later) merge: safe.
            task.equalColors = fb.tileEquals(tile, colors);
            if (rendered && hooks)
                task.preparedFlush = hooks->prepareFlushTile(tile, colors);
        };

        FrameTotals &totals = result.totals;
        auto merge = [&](TileId tile) {
            TileTask &task = taskFor(tile);
            TileOutcome &out = result.tiles[tile];
            if (recording && (out.rendered || groundTruth)) {
                // Key the record with this frame's render. A fresh
                // render's capture is copied here, on the calling
                // thread, so record buffers never grow on a worker.
                TileRecord &rec = records[tile];
                if (!task.fromRecord) {
                    rec.stats = task.renderStats;
                    rec.texels = task.texels;
                }
                const std::vector<PrimRef> &list =
                    result.binned.tileLists[tile];
                rec.frame = frameCounter;
                rec.clearColor = commands.clearColor;
                rec.prims.resize(list.size());
                for (std::size_t i = 0; i < list.size(); i++)
                    rec.prims[i] = list[i].primIndex;
            }
            const std::vector<Color> &colors = colorsOf(tile);
            if (out.rendered) {
                // The MemSystem's cache state depends on the access
                // order, which is why the events are sent here and not
                // on the worker, from the record once it holds them.
                if (mem)
                    result.texelRepeatHits +=
                        (recording ? records[tile].texels : task.texels)
                            .emit(*mem, tile, result.binned,
                                  commands.draws, textures);
                out.stats = task.renderStats;
                totals.addRendered(out.stats);
                out.equalColors = task.equalColors;
                result.renderedFromRecord += task.fromRecord;

                const bool flush = !hooks
                    || hooks->shouldFlushTilePre(tile, colors,
                                                 task.preparedFlush);
                out.flushed = flush;
                if (flush) {
                    fb.writeTile(tile, colors);
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
                    result.groundTruthFromRecord += task.fromRecord;
                }
            }
        };

        runOrdered(numTiles, tileJobs, phase1, merge, "tileWorker");
        // Every record now keys into this frame's inputs.
        if (recording) {
            std::swap(inputs, prevInputs);
            prevInputsFrame = frameCounter;
        }
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
