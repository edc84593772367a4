/**
 * @file
 * The full memory hierarchy of the baseline GPU (Fig. 4): vertex
 * cache, four texture caches, tile cache and L2, all backed by the
 * DRAM model. Implements the MemTraceSink interface the functional
 * pipeline drives.
 *
 * Structure: per-stream *front-ends* (one L1 + its traffic class +
 * its demand counters) over a shared L2 -> DRAM *back-end*. The
 * caches are level-linked (timing/cache.hh), so misses and dirty
 * writebacks propagate line-by-line at their actual addresses, in the
 * one lineBytes that linked caches share; MemSystem itself only
 * routes streams and keeps the boundary byte counters the
 * conservation check compares:
 *
 *   vertex fetches   -> Vertex Cache  -> L2 -> DRAM   (Geometry)
 *   texel fetches    -> Texture Cache -> L2 -> DRAM   (Texels)
 *   PB reads         -> Tile Cache    ------> DRAM    (Primitives)
 *   PB writes        ------------------> L2 -> DRAM   (Geometry)
 *   color flushes    --------------- streaming writes (Colors)
 *   color read-backs ------------------> L2 -> DRAM   (Colors)
 *
 * Color flushes bypass the caches as non-allocating streaming writes
 * (a whole tile per flush; the write path is bandwidth-bound), which
 * is why they charge DRAM directly. Color read-backs are demand
 * reads and go through the L2 like every other read. Parameter
 * Buffer writes write-allocate into the L2 without a refill fetch
 * (the PLB write-combines full lines); their bytes reach DRAM as
 * dirty writebacks when the lines are evicted - not as an up-front
 * unconditional charge.
 */

#ifndef REGPU_TIMING_MEMSYSTEM_HH
#define REGPU_TIMING_MEMSYSTEM_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "gpu/memiface.hh"
#include "timing/cache.hh"
#include "timing/dram.hh"

namespace regpu
{

/** Aggregate miss/stall summary for one frame (timing model input). */
struct MemFrameSummary
{
    u64 vertexMisses = 0;
    u64 texelMisses = 0;
    Cycles texelStallCycles = 0; //!< latency-weighted, MLP-adjusted
    DramTraffic dramDelta;       //!< DRAM bytes this frame, by class/dir
};

/**
 * Result of MemSystem::checkConservation(): every byte the pipeline
 * pushed into the hierarchy must be accounted for exactly once at
 * each level boundary - no double-charging, no drops.
 */
struct ConservationReport
{
    u64 violations = 0;
    std::string detail; //!< human-readable description of mismatches

    bool ok() const { return violations == 0; }
};

/**
 * One per-stream L1 front-end: the cache plus the traffic class its
 * accesses are charged under. All byte accounting lives in the
 * CacheModel's own per-class counters - one source of truth for the
 * conservation check.
 */
class StreamFrontEnd
{
  public:
    StreamFrontEnd(const CacheParams &params, TrafficClass cls)
        : cache(params), cls_(cls)
    {}

    CacheModel::RangeOutcome
    read(Addr addr, u32 bytes)
    {
        return cache.accessRange(addr, bytes, false, cls_);
    }

    /** Single-line demand read (texel granularity). */
    CacheAccessResult
    touch(Addr addr)
    {
        return cache.access(addr, false, cls_);
    }

    CacheModel cache;

  private:
    TrafficClass cls_;
};

/**
 * Memory hierarchy: per-stream L1 front-ends -> shared L2 -> DRAM.
 */
class MemSystem : public MemTraceSink
{
  public:
    explicit MemSystem(const GpuConfig &config);

    // ---- MemTraceSink interface ----------------------------------------

    void vertexFetch(Addr addr, u32 bytes) override;
    void parameterWrite(Addr addr, u32 bytes) override;
    void parameterRead(Addr addr, u32 bytes) override;
    void texelFetch(u32 textureCacheIndex, Addr addr) override;
    void texelFetches(u32 textureCacheIndex,
                      std::span<const Addr> addrs) override;
    void texelRepeatHits(u32 textureCacheIndex, Addr lastAddr,
                         u32 count) override;
    void colorFlush(Addr addr, u32 bytes) override;
    void colorRead(Addr addr, u32 bytes) override;

    // ---- Frame bookkeeping ---------------------------------------------

    /** Snapshot and clear the per-frame summary. */
    MemFrameSummary endFrame();

    /**
     * End-of-run flush: write every resident dirty line back to DRAM
     * (the L2 can hold up to its full capacity in not-yet-evicted
     * Parameter Buffer bytes, which would otherwise vanish from the
     * writeback totals a short run reports).
     */
    void flushResident();

    /**
     * Verify byte conservation at every level boundary: the demand
     * each level received equals what its upstream levels forwarded,
     * and every DRAM byte traces back to exactly one fill, writeback
     * or stream. Violations mean a routing path charges twice or
     * drops bytes.
     */
    ConservationReport checkConservation() const;

    DramModel &dram() { return dram_; }
    const DramModel &dram() const { return dram_; }
    CacheModel &vertexCacheRef() { return vertex_.cache; }
    CacheModel &tileCacheRef() { return tile_.cache; }
    CacheModel &l2Ref() { return l2; }
    const CacheModel &l2Ref() const { return l2; }
    u32 numTextureCaches() const
    { return static_cast<u32>(texels_.size()); }
    CacheModel &textureCacheRef(u32 i) { return texels_[i].cache; }

    /** Total texture-cache accesses (energy model). */
    u64
    textureCacheAccesses() const
    {
        u64 n = 0;
        for (const auto &fe : texels_)
            n += fe.cache.accesses();
        return n;
    }

  private:
    const GpuConfig &config;
    DramModel dram_;
    CacheModel l2;
    StreamFrontEnd vertex_;
    std::vector<StreamFrontEnd> texels_;
    StreamFrontEnd tile_;
    // Direct-stream byte counters (conservation inputs).
    u64 pbWriteBytes_ = 0;    //!< parameterWrite bytes into the L2
    u64 colorReadBytes_ = 0;  //!< colorRead bytes into the L2
    u64 colorFlushBytes_ = 0; //!< colorFlush bytes streamed to DRAM
    MemFrameSummary frame;
    DramTraffic lastFrameTraffic_;
};

} // namespace regpu

#endif // REGPU_TIMING_MEMSYSTEM_HH
