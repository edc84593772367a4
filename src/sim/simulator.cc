#include "sim/simulator.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace regpu
{

Simulator::Simulator(const FrameSource &scene_, const GpuConfig &config_,
                     const SimOptions &options_)
    : scene(scene_), config(config_), options(options_), cycles(config)
{
    config.validate();
    mem = std::make_unique<MemSystem>(config);
    pipe = std::make_unique<GraphicsPipeline>(config, statsReg, mem.get(),
                                              scene.textures());
    if (options.tileJobs > 1)
        pipe->setTileJobs(options.tileJobs);
    switch (config.technique) {
      case Technique::Baseline:
        break;
      case Technique::RenderingElimination:
        re = std::make_unique<RenderingElimination>(config, statsReg,
                                                    options.hashKind);
        pipe->setHooks(re.get());
        break;
      case Technique::TransactionElimination:
        te = std::make_unique<TransactionElimination>(config, statsReg);
        pipe->setHooks(te.get());
        break;
      case Technique::FragmentMemoization:
        memo = std::make_unique<FragmentMemoization>(config, statsReg);
        pipe->setHooks(memo.get());
        break;
    }

    if (!options.obsDir.empty()) {
        std::string tag = options.obsTag;
        if (tag.empty())
            tag = scene.name() + "."
                + techniqueName(config.technique);
        obsWriter = std::make_unique<RunObsWriter>(options.obsDir, tag,
                                                   config);
    }
}

FrameResult
Simulator::stepFrame(u64 frameIndex)
{
    FrameCommands cmds = scene.emitFrame(frameIndex);
    return pipe->renderFrame(cmds);
}

SimResult
Simulator::run()
{
    SimResult result;
    result.workload = scene.name();
    result.technique = config.technique;
    result.frames = options.frames;

    const u32 numTiles = config.numTiles();
    // Fig. 2 metric: tiles equal to the immediately preceding frame.
    u64 equalConsecutiveTiles = 0;
    u64 comparedConsecutiveTiles = 0;

    ObsScope runSpan("sim", "run", "frames",
                     static_cast<i64>(options.frames), "tech",
                     static_cast<i64>(config.technique));

    for (u64 f = 0; f < options.frames; f++) {
        ObsScope frameSpan("sim", "frame", "frame",
                           static_cast<i64>(f), "tech",
                           static_cast<i64>(config.technique));
        if (obsWriter)
            obsWriter->beginFrame(f);

        FrameResult fr = stepFrame(f);
        const FrameTotals &totals = fr.totals;
        result.tilesTotal += numTiles;
        result.tilesRendered += totals.tilesRendered;
        result.tilesSkippedByRe += totals.tilesEliminated;
        result.tileFlushesEliminated += totals.tileFlushesEliminated;
        result.fragmentsShaded += totals.fragmentsShaded;
        result.fragmentsMemoReused += totals.fragmentsMemoReused;

        // ---- Timing ------------------------------------------------------
        MemFrameSummary memSum = mem->endFrame();
        // Vertex misses are charged at the uncontended row latency:
        // queueing delay is bandwidth contention, which the per-tile
        // compute-vs-bandwidth max already models.
        Cycles geo = cycles.geometryCycles(
            fr, memSum.vertexMisses, mem->dram().averageRowLatency());
        Cycles stall = re ? re->frameStallCycles() : 0;
        result.signatureStallCycles += stall;
        result.geometryCycles += geo + stall;

        // Raster: per-tile compute/bandwidth max. Approximate the
        // per-tile DRAM share by splitting the frame's raster traffic
        // over rendered tiles proportionally to their activity.
        // Geometry-class *writebacks* (Parameter Buffer evictions)
        // belong here too: they occupy the bus while tiles render,
        // unlike the geometry-stage vertex fills that stay excluded.
        const u64 rasterBytes =
            memSum.dramDelta[TrafficClass::Primitives]
            + memSum.dramDelta[TrafficClass::Texels]
            + memSum.dramDelta[TrafficClass::Colors]
            + memSum.dramDelta.writebacks(TrafficClass::Geometry);
        // Each tile's activity is its fragments plus one; a skipped
        // tile's stats are zeros.
        const u64 frameFragWork = totals.fragmentsGenerated + numTiles;
        Cycles raster = 0;

        // One pass over the tiles: the Fig. 2 compare against the
        // immediately previous frame, the Fig. 15a classes against the
        // swap-chain comparison frame, and the per-tile raster cycles.
        // After the swap the front surface holds frame f and the back
        // surface frame f-1, which frame f left untouched.
        const bool haveComparison = f >= 2;
        for (TileId t = 0; t < numTiles; t++) {
            const TileOutcome &out = fr.tiles[t];
            if (f > 0)
                equalConsecutiveTiles +=
                    pipe->frameBuffer().surfacesEqual(t) ? 1 : 0;

            if (haveComparison) {
                result.tileClasses.comparedTiles++;
                // RE's decision: only RE skips tiles, so the other
                // techniques' inputs never count as equal.
                const bool equalInputs = !out.rendered;
                if (out.equalColors && equalInputs)
                    result.tileClasses.equalColorsEqualInputs++;
                else if (out.equalColors && !equalInputs)
                    result.tileClasses.equalColorsDiffInputs++;
                else if (!out.equalColors && !equalInputs)
                    result.tileClasses.diffColorsDiffInputs++;
                else
                    result.tileClasses.diffColorsEqualInputs++;
            }

            if (!out.rendered) {
                raster += cycles.skippedTileCycles();
                if (obsWriter)
                    obsWriter->tileOutcome(t, false, false, 0);
                continue;
            }
            const u64 work = out.stats.fragmentsGenerated + 1;
            const u64 share = rasterBytes * work / frameFragWork;
            const Cycles texStall =
                memSum.texelStallCycles * work / frameFragWork;
            raster += cycles.tileCycles(out.stats, share, texStall);
            // The heatmap shares the cycle model's per-tile DRAM
            // attribution, so the picture matches what timing charges.
            if (obsWriter)
                obsWriter->tileOutcome(t, true, out.flushed, share);
        }
        if (f > 0)
            comparedConsecutiveTiles += numTiles;
        result.rasterCycles += raster;

        // Per-frame counter tracks (Perfetto graphs these over time).
        obsCounter("re", "tilesSkippedPerFrame",
                   static_cast<double>(totals.tilesEliminated));
        obsCounter("re", "groundTruthFromRecordPerFrame",
                   static_cast<double>(fr.groundTruthFromRecord));
        obsCounter("gpu", "renderedFromRecordPerFrame",
                   static_cast<double>(fr.renderedFromRecord));
        obsCounter("gpu", "texelRepeatHitsPerFrame",
                   static_cast<double>(fr.texelRepeatHits));
        obsCounter("te", "flushesElidedPerFrame",
                   static_cast<double>(totals.tileFlushesEliminated));
        obsCounter("gpu", "fragmentsShadedPerFrame",
                   static_cast<double>(totals.fragmentsShaded));
        obsCounter("mem", "dramBytesPerFrame",
                   static_cast<double>(memSum.dramDelta.total()));

        if (obsWriter)
            obsWriter->endFrame(f, statsReg, geo + stall, raster,
                                memSum.dramDelta.total());
    }

    // ---- End-of-run flush --------------------------------------------
    // Dirty Parameter Buffer lines still resident in the L2 are real
    // DRAM-bound bytes; flush them so short runs report the same
    // writeback accounting per byte produced as long ones.
    mem->flushResident();

    // ---- Energy ------------------------------------------------------
    {
        const DramModel &dram = mem->dram();
        energy.chargeDram(dram.accesses(), dram.traffic().total(),
                          dram.rowMisses());
        energy.chargeCaches(mem->vertexCacheRef().accesses(),
                            mem->textureCacheAccesses(),
                            mem->tileCacheRef().accesses(),
                            mem->l2Ref().accesses());
        energy.chargeDatapath(
            statsReg.counter("geometry.verticesFetched"),
            statsReg.counter("geometry.vertexShaderInstrs"),
            statsReg.counter("geometry.primitivesOut"),
            statsReg.counter("binning.tileOverlaps"),
            statsReg.counter("raster.fragmentsGenerated"),
            statsReg.counter("raster.fragmentsGenerated"),
            statsReg.counter("raster.shaderInstructions"),
            statsReg.counter("raster.blendOps"),
            statsReg.counter("raster.blendOps")
                + statsReg.counter("raster.fragmentsGenerated"));
        // Technique hardware energy.
        energy.chargeSignatureHw(
            statsReg.counter("re.lutAccesses")
                + statsReg.counter("te.lutAccesses"),
            statsReg.counter("re.sigBufferAccesses")
                + statsReg.counter("te.sigBufferAccesses"),
            statsReg.counter("re.otPushes"),
            statsReg.counter("re.bitmapAccesses"));
        energy.chargeStatic(result.totalCycles());
        result.energy = energy.breakdown();
        result.traffic = dram.traffic();
    }

    // ---- Traffic conservation ----------------------------------------
    // Every byte the pipeline pushed into the hierarchy must be
    // accounted for exactly once at each level boundary; a non-zero
    // violation count means a routing path double-charges or drops
    // bytes. Exported as a stat so CI can assert on it.
    {
        ConservationReport cons = mem->checkConservation();
        statsReg.inc("mem.conservationViolations", cons.violations);
        // Once per process, not once per run: a sweep with a broken
        // routing path would otherwise repeat this for every cell
        // (the violation count stays exported per run regardless).
        if (!cons.ok())
            warnOnce("memory-hierarchy conservation violated:\n",
                     cons.detail);
        statsReg.inc("mem.dramReadBytes",
                     mem->dram().traffic().totalReads());
        statsReg.inc("mem.dramWriteBytes",
                     mem->dram().traffic().totalWrites());
        statsReg.inc("mem.dramWritebackBytes",
                     mem->dram().traffic().totalWritebacks());
    }

    result.reFalsePositives = statsReg.counter("re.falsePositives");
    result.equalTilesConsecutivePct = comparedConsecutiveTiles
        ? 100.0 * equalConsecutiveTiles / comparedConsecutiveTiles
        : 0.0;
    result.stats = statsReg;
    return result;
}

} // namespace regpu
