/**
 * @file
 * Set-associative cache model with LRU replacement, used for every
 * on-chip cache in Table I (vertex, texture x4, tile, L2).
 *
 * The model is functional-tagged only (no data payload), but it is
 * *level-linked*: each cache knows its downstream level (another
 * CacheModel, or the DramModel at the bottom) and propagates demand
 * misses and dirty writebacks itself, line by line, at the lines'
 * actual addresses. Linked caches share one line size, so each miss
 * or writeback is one access of the next level. Each line
 * remembers the TrafficClass that allocated it, so a dirty eviction
 * is charged to the stream that produced the data, not to whichever
 * stream happened to trigger the eviction.
 *
 * Policy: read misses refill from the next level (full line, charged
 * downstream as a demand read); write misses allocate without a
 * refill fetch (the producers that write through caches here - the
 * Polygon List Builder - write-combine full lines, so no merge read
 * is needed); dirty evictions write the victim line downstream
 * (DramDir::Writeback when the next level is DRAM). Writes are
 * posted: only read misses contribute latency.
 */

#ifndef REGPU_TIMING_CACHE_HH
#define REGPU_TIMING_CACHE_HH

#include <span>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "gpu/memiface.hh"
#include "timing/dram.hh"

namespace regpu
{

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false; //!< a dirty line was evicted
    Addr writebackAddr = 0; //!< byte address of the evicted dirty line
    Cycles latency = 0;     //!< hit latency + downstream fill latency
};

/**
 * Tag-only set-associative cache with true-LRU replacement,
 * write-back/write-allocate policy and a link to the next memory
 * level.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheParams &params);

    /** Link to the next cache level (e.g. an L1 over the L2), which
     *  must have the same lineBytes. At most one of next level / DRAM
     *  may be set; unlinked caches simply absorb their misses
     *  (standalone unit tests). */
    void linkNextLevel(CacheModel *next);

    /** Link to main memory (the bottom of the hierarchy). */
    void linkDram(DramModel *dram);

    /**
     * Access one line.
     * @param addr  byte address (the whole access is assumed to fit
     *              the line; multi-line accesses are split by
     *              accessRange)
     * @param write true for stores
     * @param cls   traffic class charged for downstream fills and for
     *              this line's eventual writeback
     */
    CacheAccessResult
    access(Addr addr, bool write, TrafficClass cls = TrafficClass::Geometry)
    {
        demandBytes_[static_cast<u8>(cls)] += params_.lineBytes;
        return accessLine(addr, write, cls);
    }

    /**
     * Count @p count read hits on the most recent line of a set, as
     * single-line accesses would: accesses, hits and demand bytes. Such
     * a hit leaves every set's LRU order as it was, so no stamp moves.
     */
    void
    repeatHits(u64 count, TrafficClass cls)
    {
        demandBytes_[static_cast<u8>(cls)] += count * params_.lineBytes;
        accesses_ += count;
        hits_ += count;
    }

    /** Aggregate outcome of a multi-line access. */
    struct RangeOutcome
    {
        u32 missLines = 0;
        u32 writebacks = 0;
        Cycles latency = 0; //!< summed per-line latency (hits included)
    };

    /**
     * Split an arbitrary [addr, addr+bytes) access into line accesses.
     * Zero-byte ranges are no-ops: they touch no line, count no
     * access and generate no downstream traffic.
     */
    RangeOutcome accessRange(Addr addr, u32 bytes, bool write,
                             TrafficClass cls = TrafficClass::Geometry);

    /**
     * Drop all contents (frame-boundary invalidation for the Tile
     * Cache whose Parameter Buffer is rebuilt each frame). Dirty
     * lines are written back downstream first so their bytes are
     * never silently dropped from the traffic accounting.
     */
    void invalidateAll();

    const CacheParams &params() const { return params_; }
    u64 accesses() const { return accesses_; }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    u64 writebacks() const { return writebacks_; }
    u64 fills() const { return fills_; }

    /** Bytes requested of this cache (sum of accessRange byte counts
     *  plus one lineBytes per single-line access), per class. */
    u64 demandBytes(TrafficClass c) const
    { return demandBytes_[static_cast<u8>(c)]; }

    /** Bytes this cache fetched from its next level, per class. */
    u64 fillBytes(TrafficClass c) const
    { return fillBytes_[static_cast<u8>(c)]; }

    /** Bytes this cache wrote back to its next level, per class. */
    u64 writebackBytes(TrafficClass c) const
    { return writebackBytes_[static_cast<u8>(c)]; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        u64 lastUse = 0;
        TrafficClass cls = TrafficClass::Geometry;
    };

    /** No line: addresses stay far below 2^64 - 1, where only a
     *  1-byte-line cache could form this line number. */
    static constexpr Addr noLine = ~Addr{0};

    /** One-line access without demand accounting (range splitting
     *  counts the caller's exact byte demand once, at the entry
     *  point, so conservation stays exact for ranges that are not
     *  whole lines). Inline, so that a repeat of either of the last
     *  two lines, about five in six texel fetches, costs a compare or
     *  two and the hit's bookkeeping; any other line takes the
     *  out-of-line set scan. */
    CacheAccessResult
    accessLine(Addr addr, bool write, TrafficClass cls)
    {
        const Addr line = addr >> lineShift;
        accesses_++;
        stamp++;
        if (line != mru[0].line) {
            if (line != mru[1].line)
                return accessSet(line, write, cls);
            std::swap(mru[0], mru[1]);
        }
        hits_++;
        Way &way = ways_[mru[0].way];
        way.lastUse = stamp;
        way.dirty |= write;
        CacheAccessResult result;
        result.hit = true;
        result.latency = params_.hitLatency;
        return result;
    }

    /** The ways of @p line's set. */
    std::span<Way> setOf(Addr line);

    /** Look @p line up in its set, allocating it over the LRU way on a
     *  miss, and make it the memo's most recent line. */
    CacheAccessResult accessSet(Addr line, bool write, TrafficClass cls);

    /** Send a victim line downstream. */
    void propagateWriteback(Addr lineAddr, TrafficClass cls);

    /** Fetch a missing line from downstream; returns fill latency. */
    Cycles propagateFill(Addr lineAddr, TrafficClass cls);

    CacheParams params_;
    u64 numSets;
    u32 lineShift; //!< log2(lineBytes)
    u32 setShift;  //!< log2(numSets)
    std::vector<Way> ways_; //!< set-major: set s is [s*ways, (s+1)*ways)
    /** A memo entry: a resident line and the index of its way. */
    struct MruEntry
    {
        Addr line = noLine;
        std::size_t way = 0;
    };

    // MRU memo: the last two distinct lines accessed, most recent
    // first, and the ways holding them. Only a miss or invalidateAll
    // can evict a line. A miss makes its line the first entry and the
    // old first the second, unless its way was the victim (a 1-way
    // set); invalidateAll clears both. So every entry is resident, and
    // a repeat is a hit on its way without a scan.
    MruEntry mru[2];
    CacheModel *next_ = nullptr;
    DramModel *dram_ = nullptr;
    u64 stamp = 0;
    u64 accesses_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 writebacks_ = 0;
    u64 fills_ = 0;
    u64 demandBytes_[4] = {0, 0, 0, 0};
    u64 fillBytes_[4] = {0, 0, 0, 0};
    u64 writebackBytes_[4] = {0, 0, 0, 0};
};

} // namespace regpu

#endif // REGPU_TIMING_CACHE_HH
