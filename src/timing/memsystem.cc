#include "timing/memsystem.hh"

#include <sstream>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace regpu
{

MemSystem::MemSystem(const GpuConfig &_config)
    : config(_config), dram_(_config), l2(_config.l2Cache),
      vertex_(_config.vertexCache, TrafficClass::Geometry),
      tile_(_config.tileCache, TrafficClass::Primitives)
{
    for (u32 i = 0; i < config.numTextureCaches; i++)
        texels_.emplace_back(config.textureCache, TrafficClass::Texels);

    // Level links (Fig. 4): vertex and texture caches miss into the
    // shared L2; the Tile Cache streams the Parameter Buffer straight
    // from DRAM; the L2 backs everything else.
    l2.linkDram(&dram_);
    tile_.cache.linkDram(&dram_);
    vertex_.cache.linkNextLevel(&l2);
    for (auto &fe : texels_)
        fe.cache.linkNextLevel(&l2);
}

void
MemSystem::vertexFetch(Addr addr, u32 bytes)
{
    CacheModel::RangeOutcome r = vertex_.read(addr, bytes);
    frame.vertexMisses += r.missLines;
}

void
MemSystem::parameterWrite(Addr addr, u32 bytes)
{
    if (bytes == 0)
        return;
    // The PLB write-combines into full lines through the L2:
    // write-allocate without a refill fetch. The bytes reach DRAM as
    // dirty writebacks when the lines are evicted - charging DRAM
    // here as well would double-count every Parameter Buffer byte.
    pbWriteBytes_ += bytes;
    l2.accessRange(addr, bytes, true, TrafficClass::Geometry);
}

void
MemSystem::parameterRead(Addr addr, u32 bytes)
{
    tile_.read(addr, bytes);
}

void
MemSystem::texelFetch(u32 textureCacheIndex, Addr addr)
{
    texelFetches(textureCacheIndex, {&addr, 1});
}

void
MemSystem::texelFetches(u32 textureCacheIndex, std::span<const Addr> addrs)
{
    REGPU_ASSERT(textureCacheIndex < texels_.size(),
                 "texture cache index ", textureCacheIndex,
                 " out of range");
    StreamFrontEnd &fe = texels_[textureCacheIndex];
    for (Addr addr : addrs) {
        CacheAccessResult r = fe.touch(addr);
        if (r.hit)
            continue;
        frame.texelMisses++;
        // The fragment processors keep several misses in flight
        // (config.texelMissesInFlight); charge only the exposed
        // fraction of the miss latency. The latency deliberately
        // includes DRAM queueing delay: texel stalls compete inside
        // the same per-tile max(compute, bandwidth) that models the
        // contended bus, so this stays a single charge - unlike the
        // geometry stage, which has no bandwidth term and is charged
        // uncontended row latency instead (see averageRowLatency).
        frame.texelStallCycles += r.latency / config.texelMissesInFlight;
    }
}

void
MemSystem::colorFlush(Addr addr, u32 bytes)
{
    if (bytes == 0)
        return;
    // Non-allocating streaming write: a whole tile heads straight to
    // the Frame Buffer; caching it would only pollute the L2.
    colorFlushBytes_ += bytes;
    dram_.access(addr, bytes, TrafficClass::Colors, DramDir::Write);
}

void
MemSystem::colorRead(Addr addr, u32 bytes)
{
    if (bytes == 0)
        return;
    // Frame Buffer read-back is a demand read through the shared L2
    // (Fig. 4), not a streaming write like the flush path.
    colorReadBytes_ += bytes;
    l2.accessRange(addr, bytes, false, TrafficClass::Colors);
}

MemFrameSummary
MemSystem::endFrame()
{
    ObsScope span("mem", "endFrame");
    frame.dramDelta = dram_.traffic().since(lastFrameTraffic_);
    lastFrameTraffic_ = dram_.traffic();

    MemFrameSummary s = frame;
    frame = MemFrameSummary{};
    // The Parameter Buffer is rebuilt from scratch every frame.
    tile_.cache.invalidateAll();
    // The request queue empties across the frame boundary.
    dram_.drain();
    return s;
}

void
MemSystem::flushResident()
{
    ObsScope span("mem", "flushResident");
    // Only the L2 and Tile Cache can hold dirty lines (the L1 vertex
    // and texture caches are read-only streams); invalidateAll
    // writes dirty victims downstream before clearing.
    l2.invalidateAll();
    tile_.cache.invalidateAll();
    dram_.drain();
}

ConservationReport
MemSystem::checkConservation() const
{
    ConservationReport report;
    std::ostringstream detail;
    auto check = [&](const char *what, TrafficClass cls, u64 actual,
                     u64 expected) {
        if (actual != expected) {
            report.violations++;
            detail << what << "[" << static_cast<int>(cls)
                   << "]: " << actual << " != expected " << expected
                   << "\n";
        }
    };

    for (int i = 0; i < 4; i++) {
        const TrafficClass cls = static_cast<TrafficClass>(i);

        // L2 boundary: demand placed on the L2 equals what the L1
        // front-ends forwarded (fills + writebacks) plus the direct
        // streams routed through it.
        u64 l1Forwarded = vertex_.cache.fillBytes(cls)
            + vertex_.cache.writebackBytes(cls);
        for (const auto &fe : texels_)
            l1Forwarded += fe.cache.fillBytes(cls)
                + fe.cache.writebackBytes(cls);
        if (cls == TrafficClass::Geometry)
            l1Forwarded += pbWriteBytes_;
        if (cls == TrafficClass::Colors)
            l1Forwarded += colorReadBytes_;
        check("l2.demandBytes", cls, l2.demandBytes(cls), l1Forwarded);

        // DRAM boundary, reads: every read byte is an L2 or Tile
        // Cache refill.
        check("dram.reads", cls, dram_.traffic().reads(cls),
              l2.fillBytes(cls) + tile_.cache.fillBytes(cls));

        // DRAM boundary, writebacks: every writeback byte left a
        // dirty line in the L2 or Tile Cache.
        check("dram.writebacks", cls, dram_.traffic().writebacks(cls),
              l2.writebackBytes(cls) + tile_.cache.writebackBytes(cls));

        // DRAM boundary, streaming writes: color flushes only.
        check("dram.writes", cls, dram_.traffic().writes(cls),
              cls == TrafficClass::Colors ? colorFlushBytes_ : 0);
    }

    report.detail = detail.str();
    return report;
}

} // namespace regpu
