/**
 * @file
 * Memory-hierarchy (MemSystem) suite: per-stream routing, writeback
 * correctness, the byte-conservation contract at every level
 * boundary, the texel-MLP knob, and a pinned Baseline-vs-RE DRAM
 * regression under the trace replayer.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "gpu/texture.hh"
#include "gpu/tile_pool.hh"
#include "sim/simulator.hh"
#include "timing/memsystem.hh"
#include "trace/trace_scene.hh"
#include "trace/trace_writer.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** Assert the conservation report is clean, printing any detail. */
void
expectConserved(const MemSystem &mem)
{
    ConservationReport rep = mem.checkConservation();
    EXPECT_EQ(rep.violations, 0u) << rep.detail;
}

} // namespace

// ---------------------------------------------------------------------------
// Basic routing (moved from the old cycle-model suite)
// ---------------------------------------------------------------------------

TEST(MemSystem, TexelMissesFillCachesThenHit)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.texelFetch(0, 0x3'0000'0000ull);
    mem.texelFetch(0, 0x3'0000'0000ull);
    EXPECT_EQ(mem.textureCacheRef(0).misses(), 1u);
    EXPECT_EQ(mem.textureCacheRef(0).hits(), 1u);
    // The miss reached DRAM as texel demand-read traffic.
    EXPECT_GT(mem.dram().traffic().reads(TrafficClass::Texels), 0u);
    expectConserved(mem);
}

TEST(MemSystem, TextureCachesAreIndependent)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.texelFetch(0, 0x3'0000'0000ull);
    mem.texelFetch(1, 0x3'0000'0000ull);
    EXPECT_EQ(mem.textureCacheRef(0).misses(), 1u);
    EXPECT_EQ(mem.textureCacheRef(1).misses(), 1u);
    // ...but they share the L2: the second L1's fill hits there, so
    // DRAM sees the line exactly once.
    EXPECT_EQ(mem.dram().traffic().reads(TrafficClass::Texels),
              mem.l2Ref().params().lineBytes);
    expectConserved(mem);
}

TEST(MemSystem, ParameterReadMissesGoToDramAsPrimitives)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.parameterRead(0x2'0000'0000ull, 256);
    EXPECT_GT(mem.dram().traffic()[TrafficClass::Primitives], 0u);
    // Second read of the same region hits the Tile Cache.
    u64 before = mem.dram().traffic()[TrafficClass::Primitives];
    mem.parameterRead(0x2'0000'0000ull, 256);
    EXPECT_EQ(mem.dram().traffic()[TrafficClass::Primitives], before);
    expectConserved(mem);
}

TEST(MemSystem, EndFrameInvalidatesTileCache)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.parameterRead(0x2'0000'0000ull, 64);
    mem.endFrame();
    u64 before = mem.dram().traffic()[TrafficClass::Primitives];
    mem.parameterRead(0x2'0000'0000ull, 64);
    EXPECT_GT(mem.dram().traffic()[TrafficClass::Primitives], before);
}

TEST(MemSystem, FrameSummaryResetsEachFrame)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.texelFetch(0, 0x3'0000'0000ull);
    MemFrameSummary s1 = mem.endFrame();
    EXPECT_EQ(s1.texelMisses, 1u);
    MemFrameSummary s2 = mem.endFrame();
    EXPECT_EQ(s2.texelMisses, 0u);
}

// ---------------------------------------------------------------------------
// The mischarging fixes
// ---------------------------------------------------------------------------

TEST(MemSystem, ZeroByteRangesAreNoOps)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.vertexFetch(0x1000, 0);
    mem.parameterWrite(0x2000, 0);
    mem.parameterRead(0x3000, 0);
    mem.colorFlush(0x4000, 0);
    mem.colorRead(0x5000, 0);
    EXPECT_EQ(mem.totalCacheAccesses(), 0u);
    EXPECT_EQ(mem.dram().traffic().total(), 0u);
    EXPECT_EQ(mem.dram().accesses(), 0u);
    expectConserved(mem);
}

TEST(MemSystem, RefillChargesTheActualMissingLines)
{
    // Regression for refill(addr, misses) charging addr + m*64: warm
    // line A, then fetch [A, A+128) - only line B = A+64 misses, so
    // DRAM must see exactly one more line, at B, not a re-fetch of A.
    GpuConfig cfg;
    MemSystem mem(cfg);
    const Addr a = 0x1'0000'0000ull;
    mem.vertexFetch(a, 64);
    const u64 after1 = mem.dram().traffic().reads(TrafficClass::Geometry);
    EXPECT_EQ(after1, 64u); // L1 fill -> L2 fill -> one DRAM line
    mem.vertexFetch(a, 128);
    const u64 after2 = mem.dram().traffic().reads(TrafficClass::Geometry);
    EXPECT_EQ(after2 - after1, 64u); // only line B fetched
    // And the L2 really holds B now: a texel probe of B hits the L2.
    u64 texReads = mem.dram().traffic().reads(TrafficClass::Texels);
    mem.texelFetch(0, a + 64);
    EXPECT_EQ(mem.dram().traffic().reads(TrafficClass::Texels),
              texReads); // L2 hit: no DRAM
    expectConserved(mem);
}

TEST(MemSystem, ParameterWritesAreNotDoubleChargedToDram)
{
    // Regression: the old model computed L2 misses/writebacks for PB
    // writes and then *also* charged DRAM for every byte. Now a PB
    // working set that fits in the L2 generates no DRAM traffic at
    // all until eviction.
    GpuConfig cfg;
    MemSystem mem(cfg);
    for (Addr a = 0; a < 32 * KiB; a += 64)
        mem.parameterWrite(0x2'0000'0000ull + a, 64);
    EXPECT_EQ(mem.dram().traffic()[TrafficClass::Geometry], 0u);
    expectConserved(mem);
}

TEST(MemSystem, EvictedParameterBytesReachDramAsWritebacks)
{
    // Stream a PB working set much larger than the 256 KB L2: dirty
    // lines must be written back, and their bytes must show up in
    // DramTraffic (the old model dropped them entirely).
    GpuConfig cfg;
    MemSystem mem(cfg);
    const u64 streamBytes = 2 * cfg.l2Cache.sizeBytes;
    for (Addr a = 0; a < streamBytes; a += 64)
        mem.parameterWrite(0x2'0000'0000ull + a, 64);
    const DramTraffic &tr = mem.dram().traffic();
    EXPECT_GT(tr.writebacks(TrafficClass::Geometry), 0u);
    // Write misses allocate without a refill fetch, so no read
    // traffic either - only writebacks.
    EXPECT_EQ(tr.reads(TrafficClass::Geometry), 0u);
    EXPECT_EQ(tr.writes(TrafficClass::Geometry), 0u);
    // Exactly the overflow leaves: bytes written minus L2 capacity.
    EXPECT_EQ(tr.writebacks(TrafficClass::Geometry),
              streamBytes - cfg.l2Cache.sizeBytes);
    expectConserved(mem);
}

TEST(MemSystem, FlushResidentEmitsRetainedDirtyBytes)
{
    // A PB working set that fits in the L2 reaches DRAM only at the
    // end-of-run flush - but then *all* of it must, or short runs
    // under-report writeback bytes relative to long ones.
    GpuConfig cfg;
    MemSystem mem(cfg);
    for (Addr a = 0; a < 32 * KiB; a += 64)
        mem.parameterWrite(0x2'0000'0000ull + a, 64);
    EXPECT_EQ(mem.dram().traffic()[TrafficClass::Geometry], 0u);
    mem.flushResident();
    EXPECT_EQ(mem.dram().traffic().writebacks(TrafficClass::Geometry),
              32 * KiB);
    expectConserved(mem);
}

TEST(MemSystem, ColorReadGoesThroughTheHierarchy)
{
    // Regression: colorRead was charged identically to colorFlush
    // (a streaming DRAM write). Reads must go through the L2 and be
    // classified as reads.
    GpuConfig cfg;
    MemSystem mem(cfg);
    const Addr fb = 0x4'0000'0000ull;
    mem.colorRead(fb, 1024);
    const DramTraffic &tr = mem.dram().traffic();
    EXPECT_EQ(tr.reads(TrafficClass::Colors), 1024u);
    EXPECT_EQ(tr.writes(TrafficClass::Colors), 0u);
    // A second read of the same tile hits the L2: no new DRAM bytes.
    mem.colorRead(fb, 1024);
    EXPECT_EQ(tr.reads(TrafficClass::Colors), 1024u);
    expectConserved(mem);
}

TEST(MemSystem, ColorFlushStaysAStreamingWrite)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.colorFlush(0x4'0000'0000ull, 1024);
    EXPECT_EQ(mem.dram().traffic().writes(TrafficClass::Colors), 1024u);
    EXPECT_EQ(mem.dram().traffic().reads(TrafficClass::Colors), 0u);
    // Flushes are non-allocating: the L2 saw nothing.
    EXPECT_EQ(mem.l2Ref().accesses(), 0u);
    expectConserved(mem);
}

TEST(MemSystem, TexelMlpKnobScalesExposedStalls)
{
    GpuConfig serial;
    serial.texelMissesInFlight = 1;
    GpuConfig deep;
    deep.texelMissesInFlight = 8;

    auto stallsFor = [](const GpuConfig &cfg) {
        MemSystem mem(cfg);
        for (u32 i = 0; i < 64; i++)
            mem.texelFetch(0, 0x3'0000'0000ull
                               + static_cast<Addr>(i) * 4096);
        return mem.endFrame().texelStallCycles;
    };
    Cycles exposed1 = stallsFor(serial);
    Cycles exposed8 = stallsFor(deep);
    EXPECT_GT(exposed1, exposed8);
    EXPECT_GE(exposed1, 8 * exposed8 / 2); // roughly 1/N scaling
}

TEST(MemSystem, FrameSummaryCarriesPerFrameDramDeltas)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.colorFlush(0x4'0000'0000ull, 512);
    mem.texelFetch(0, 0x3'0000'0000ull);
    MemFrameSummary f1 = mem.endFrame();
    EXPECT_EQ(f1.dramDelta.writes(TrafficClass::Colors), 512u);
    EXPECT_GT(f1.dramDelta.reads(TrafficClass::Texels), 0u);

    // Second frame: only its own bytes, not the cumulative total.
    mem.colorFlush(0x4'0000'0000ull, 256);
    MemFrameSummary f2 = mem.endFrame();
    EXPECT_EQ(f2.dramDelta.writes(TrafficClass::Colors), 256u);
    EXPECT_EQ(f2.dramDelta.reads(TrafficClass::Texels), 0u);
}

TEST(MemSystem, PerSampleTexelCallsMatchPerAddressCalls)
{
    // One seeded stream of bilinear 2x2 footprints, as TileRenderer
    // issues them: per address, per sample, and per sample recorded
    // by the tile pool's MemEventRecorder and replayed at the merge.
    GpuConfig cfg;
    MemSystem perAddress(cfg), perSample(cfg), replayed(cfg);
    const Texture tex(3, 256, 256, TexturePattern::Solid, 1);
    Rng rng(0x7e7e1);
    float s = 0, t = 0;
    for (int frame = 0; frame < 3; frame++) {
        MemEventRecorder recorder;
        for (int i = 0; i < 6000; i++) {
            // Mostly short scanline steps, sometimes a jump.
            if (rng.nextBounded(16) == 0) {
                s = rng.nextFloat();
                t = rng.nextFloat();
            } else {
                s += 0.5f / 256;
                t += 0.01f / 256;
            }
            TexelFootprint fp;
            Sampler::sample(tex, s, t, &fp);
            ASSERT_EQ(fp.count, 4u);
            const u32 cache =
                static_cast<u32>(rng.nextBounded(cfg.numTextureCaches));
            for (Addr a : fp.addrs())
                perAddress.texelFetch(cache, a);
            perSample.texelFetches(cache, fp.addrs());
            recorder.texelFetches(cache, fp.addrs());
        }
        recorder.replay(replayed);

        const MemFrameSummary want = perAddress.endFrame();
        EXPECT_GT(want.texelMisses, 0u);
        for (MemSystem *mem : {&perSample, &replayed}) {
            const MemFrameSummary got = mem->endFrame();
            EXPECT_EQ(got.texelMisses, want.texelMisses);
            EXPECT_EQ(got.texelStallCycles, want.texelStallCycles);
            for (u8 c = 0; c < 4; c++) {
                const auto cls = static_cast<TrafficClass>(c);
                EXPECT_EQ(got.dramDelta.reads(cls),
                          want.dramDelta.reads(cls));
                EXPECT_EQ(got.dramDelta.writes(cls),
                          want.dramDelta.writes(cls));
                EXPECT_EQ(got.dramDelta.writebacks(cls),
                          want.dramDelta.writebacks(cls));
            }
        }
    }

    auto expectSameCounts = [](const CacheModel &got,
                               const CacheModel &want, u32 index) {
        SCOPED_TRACE(::testing::Message() << want.params().name << index);
        EXPECT_EQ(got.accesses(), want.accesses());
        EXPECT_EQ(got.hits(), want.hits());
        EXPECT_EQ(got.misses(), want.misses());
        EXPECT_EQ(got.fills(), want.fills());
    };
    for (MemSystem *mem : {&perSample, &replayed}) {
        expectSameCounts(mem->l2Ref(), perAddress.l2Ref(), 0);
        for (u32 i = 0; i < cfg.numTextureCaches; i++)
            expectSameCounts(mem->textureCacheRef(i),
                             perAddress.textureCacheRef(i), i);
    }
    for (MemSystem *mem : {&perAddress, &perSample, &replayed})
        expectConserved(*mem);
    // The stream re-hits lines as the renderer's does.
    EXPECT_GT(perAddress.textureCacheRef(0).hits(),
              perAddress.textureCacheRef(0).misses());
}

// ---------------------------------------------------------------------------
// Conservation: bytes-in == hits + fills + DRAM traffic, per class
// ---------------------------------------------------------------------------

TEST(MemSystem, ConservationHoldsUnderRandomTrafficMix)
{
    GpuConfig cfg;
    MemSystem mem(cfg);
    Rng rng(0xC0FFEEu);
    for (int frame = 0; frame < 4; frame++) {
        for (int i = 0; i < 2000; i++) {
            const Addr addr = rng.nextBounded(64 * MiB);
            const u32 bytes = 1 + static_cast<u32>(rng.nextBounded(512));
            switch (rng.nextBounded(6)) {
              case 0: mem.vertexFetch(0x1'0000'0000ull + addr, bytes);
                break;
              case 1: mem.parameterWrite(0x2'0000'0000ull + addr, bytes);
                break;
              case 2: mem.parameterRead(0x2'0000'0000ull + addr, bytes);
                break;
              case 3: mem.texelFetch(static_cast<u32>(rng.nextBounded(4)),
                                     0x3'0000'0000ull + addr);
                break;
              case 4: mem.colorFlush(0x4'0000'0000ull + addr, bytes);
                break;
              case 5: mem.colorRead(0x4'0000'0000ull + addr, bytes);
                break;
            }
        }
        mem.endFrame();
        expectConserved(mem);
    }
}

TEST(MemSystem, ConservationSplitsPerClassExactly)
{
    // Drive each stream separately and check the L1-hits + L2-fills +
    // DRAM identity for its class by hand.
    GpuConfig cfg;
    MemSystem mem(cfg);
    for (Addr a = 0; a < 16 * KiB; a += 32)
        mem.vertexFetch(0x1'0000'0000ull + a, 32);

    const CacheModel &l1 = mem.vertexCacheRef();
    const CacheModel &l2 = mem.l2Ref();
    // Every L1 line processed is either a hit or a miss...
    EXPECT_EQ(l1.accesses(), l1.hits() + l1.misses());
    // ...every read miss became exactly one full-line fill...
    EXPECT_EQ(l1.fills() * l1.params().lineBytes,
              l1.fillBytes(TrafficClass::Geometry));
    // ...the L2 was asked for exactly those bytes...
    EXPECT_EQ(l2.demandBytes(TrafficClass::Geometry),
              l1.fillBytes(TrafficClass::Geometry));
    // ...and DRAM supplied exactly the L2's fills.
    EXPECT_EQ(mem.dram().traffic().reads(TrafficClass::Geometry),
              l2.fillBytes(TrafficClass::Geometry));
    expectConserved(mem);
}

TEST(MemSystem, ConservationCatchesDroppedBytes)
{
    // Sanity-check the checker itself: bypassing the accounting path
    // (an unrecorded direct DRAM access) must trip it.
    GpuConfig cfg;
    MemSystem mem(cfg);
    mem.vertexFetch(0x1'0000'0000ull, 64);
    expectConserved(mem);
    mem.dram().access(0x9'0000'0000ull, 64, TrafficClass::Texels,
                      DramDir::Read);
    EXPECT_GT(mem.checkConservation().violations, 0u);
}

// ---------------------------------------------------------------------------
// Pinned Baseline-vs-RE DRAM regression under the trace replayer
// ---------------------------------------------------------------------------

TEST(MemSystem, BaselineVsReDramBytesUnderTraceReplay)
{
    GpuConfig config;
    config.scaleResolution(160, 96);
    auto scene = makeBenchmark("ccs", config);
    const u64 frames = 8;
    const std::string path =
        testing::TempDir() + "regpu_memsys_pin.rgputrace";
    captureTrace(*scene, config, frames, 1, path);

    SimOptions opts;
    opts.frames = frames;
    auto runReplay = [&](Technique tech) {
        GpuConfig c = config;
        c.technique = tech;
        TraceScene replay(path);
        Simulator sim(replay, c, opts);
        return sim.run();
    };
    SimResult base = runReplay(Technique::Baseline);
    SimResult re = runReplay(Technique::RenderingElimination);

    // The headline claim, now writeback-correct: RE moves fewer DRAM
    // bytes than Baseline on a mostly-static workload, with zero
    // false positives and clean conservation in both runs.
    EXPECT_LT(re.traffic.total(), base.traffic.total());
    EXPECT_LT(re.traffic[TrafficClass::Texels],
              base.traffic[TrafficClass::Texels]);
    EXPECT_LT(re.traffic[TrafficClass::Colors],
              base.traffic[TrafficClass::Colors]);
    EXPECT_EQ(base.stats.counter("mem.conservationViolations"), 0u);
    EXPECT_EQ(re.stats.counter("mem.conservationViolations"), 0u);
    EXPECT_EQ(re.reFalsePositives, 0u);

    // Writeback bytes are part of the accounting in both runs (the
    // Parameter Buffer always overflows the L2 at this resolution),
    // and the split is self-consistent.
    EXPECT_GT(base.traffic.totalWritebacks(), 0u);
    EXPECT_GT(re.traffic.totalWritebacks(), 0u);
    EXPECT_EQ(base.traffic.total(),
              base.traffic.totalReads() + base.traffic.totalWrites()
                  + base.traffic.totalWritebacks());

    std::remove(path.c_str());
}
