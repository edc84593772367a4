/**
 * @file
 * Set-associative cache model tests: LRU/writeback behaviour, the
 * level-linking contract (misses and dirty evictions propagate at
 * their actual line addresses, in the evicting cache's lineBytes),
 * and a differential check against a deliberately naive reference
 * cache on seeded random streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "timing/cache.hh"
#include "timing/dram.hh"

using namespace regpu;

namespace
{

CacheParams
smallCache(u32 sizeBytes = 1024, u32 ways = 2, u32 line = 64,
           const char *name = "test")
{
    CacheParams p;
    p.name = name;
    p.lineBytes = line;
    p.ways = ways;
    p.sizeBytes = sizeBytes;
    return p;
}

} // namespace

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheModel, SameLineDifferentOffsetsHit)
{
    CacheModel c(smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(CacheModel, AssociativityHoldsConflictingLines)
{
    // 1 KB, 2-way, 64 B lines -> 8 sets; addresses 8*64 apart conflict.
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0x0, false);
    c.access(stride, false);
    EXPECT_TRUE(c.access(0x0, false).hit);
    EXPECT_TRUE(c.access(stride, false).hit);
}

TEST(CacheModel, LruEvictsLeastRecentlyUsed)
{
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0 * stride, false);
    c.access(1 * stride, false);
    c.access(0 * stride, false);      // touch A: B becomes LRU
    c.access(2 * stride, false);      // evicts B
    EXPECT_TRUE(c.access(0 * stride, false).hit);
    EXPECT_FALSE(c.access(1 * stride, false).hit);
}

TEST(CacheModel, DirtyEvictionReportsWritebackWithVictimAddress)
{
    CacheModel c(smallCache());
    const Addr stride = 8 * 64;
    c.access(0 * stride, true); // dirty
    c.access(1 * stride, false);
    CacheAccessResult r = c.access(2 * stride, false); // evicts dirty
    EXPECT_TRUE(r.writeback);
    // The dirty data leaves at *its* address, not the requester's.
    EXPECT_EQ(r.writebackAddr, 0u * stride);
    EXPECT_EQ(c.writebacks(), 1u);
    r = c.access(3 * stride, false); // evicts a clean line
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheModel, AccessRangeSplitsIntoLines)
{
    CacheModel c(smallCache());
    // 200 bytes from 0x10 crosses lines 0,1,2,3.
    EXPECT_EQ(c.accessRange(0x10, 200, false).missLines, 4u);
    EXPECT_EQ(c.accessRange(0x10, 200, false).missLines, 0u);
}

TEST(CacheModel, AccessRangeZeroBytesIsNoOp)
{
    // Regression: the old model still touched one line for a
    // zero-byte range, charging a full access that never happened.
    CacheModel c(smallCache());
    CacheModel::RangeOutcome r = c.accessRange(0x0, 0, false);
    EXPECT_EQ(r.missLines, 0u);
    EXPECT_EQ(r.writebacks, 0u);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.demandBytes(TrafficClass::Geometry), 0u);
}

TEST(CacheModel, InvalidateAllColdsTheCache)
{
    CacheModel c(smallCache());
    c.access(0x0, false);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(CacheModel, TableOneConfigsConstructible)
{
    GpuConfig cfg;
    CacheModel vertex(cfg.vertexCache);
    CacheModel texture(cfg.textureCache);
    CacheModel tile(cfg.tileCache);
    CacheModel l2(cfg.l2Cache);
    EXPECT_EQ(vertex.params().sizeBytes, 4 * KiB);
    EXPECT_EQ(l2.params().ways, 8u);
}

TEST(CacheModel, StreamingWorkingSetLargerThanCacheThrashes)
{
    CacheModel c(smallCache(1024, 2, 64)); // 16 lines capacity
    // Stream 64 distinct lines twice: second pass must still miss
    // (capacity misses), validating the reuse-distance behaviour the
    // paper leans on ("reuse distance of an entire frame").
    for (int pass = 0; pass < 2; pass++)
        for (Addr line = 0; line < 64; line++)
            c.access(line * 64, false);
    EXPECT_EQ(c.misses(), 128u);
}

// ---- Level-linking -------------------------------------------------------

TEST(CacheModel, ReadMissRefillsFromNextLevelAtLineAddress)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    l1.access(0x1008, false);
    // The refill demanded the full aligned line from the L2.
    EXPECT_EQ(l2.accesses(), 1u);
    EXPECT_EQ(l1.fills(), 1u);
    EXPECT_EQ(l1.fillBytes(TrafficClass::Geometry), 64u);
    EXPECT_EQ(l2.demandBytes(TrafficClass::Geometry), 64u);
    // The L2 now holds the line (probe with a fresh class to spot it).
    EXPECT_TRUE(l2.access(0x1000, false).hit);
}

TEST(CacheModelDeathTest, LinkedLevelsMustShareALineSize)
{
    // A miss or writeback reaches the next level as one line access,
    // which covers the whole line only when both sizes are equal.
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 128, "l2"));
    EXPECT_DEATH(l1.linkNextLevel(&l2),
                 "linked caches must share a line size: l1");
}

TEST(CacheModel, OnlyMissingLinesRefill)
{
    // Regression for the old MemSystem::refill(addr, misses) bug: a
    // range where only the *second* line misses must refill the
    // second line's address, not addr + 0.
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    l1.accessRange(0x0, 64, false);    // line 0 cached, L2 fills line 0
    EXPECT_EQ(l2.misses(), 1u);
    l1.accessRange(0x0, 128, false);   // line 0 hits, line 1 misses
    EXPECT_EQ(l1.fills(), 2u);
    EXPECT_EQ(l2.accesses(), 2u);      // only the missing line forwarded
    EXPECT_TRUE(l2.access(0x40, false).hit); // line 1, not line 0 again
}

TEST(CacheModel, DirtyEvictionWritesBackThroughLink)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);
    const Addr stride = 8 * 64; // l1 set-conflict stride

    l1.access(0 * stride, true); // dirty in l1 (write-allocate, no fill)
    EXPECT_EQ(l2.accesses(), 0u); // write miss does not fetch
    l1.access(1 * stride, false);
    l1.access(2 * stride, false); // evicts the dirty line
    EXPECT_EQ(l1.writebacks(), 1u);
    EXPECT_EQ(l1.writebackBytes(TrafficClass::Geometry), 64u);
    // The victim line arrived in the L2 as a (dirty) write.
    EXPECT_TRUE(l2.access(0 * stride, false).hit);
}

TEST(CacheModel, WritebackReachesDramAsWritebackTraffic)
{
    GpuConfig cfg;
    DramModel dram(cfg);
    CacheModel l2(smallCache(1024, 2, 64, "l2"));
    l2.linkDram(&dram);
    const Addr stride = 8 * 64;

    l2.access(0 * stride, true, TrafficClass::Geometry);
    l2.access(1 * stride, false, TrafficClass::Texels);
    l2.access(2 * stride, false, TrafficClass::Texels); // evicts dirty
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Geometry), 64u);
    // The writeback is charged to the class that *produced* the dirty
    // line (Geometry), not the Texels access that evicted it.
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Texels), 0u);
    // Read fills show up as reads of the requester's class.
    EXPECT_EQ(dram.traffic().reads(TrafficClass::Texels), 128u);
}

TEST(CacheModel, InvalidateAllFlushesDirtyLinesDownstream)
{
    GpuConfig cfg;
    DramModel dram(cfg);
    CacheModel c(smallCache(1024, 2, 64, "flush"));
    c.linkDram(&dram);

    c.access(0x0, true);
    c.access(0x40, false);
    c.invalidateAll();
    // The dirty line's bytes were not silently dropped.
    EXPECT_EQ(dram.traffic().writebacks(TrafficClass::Geometry), 64u);
    EXPECT_EQ(c.writebacks(), 1u);
    EXPECT_FALSE(c.access(0x0, false).hit);
}

TEST(CacheModel, MissLatencyIncludesDownstreamFill)
{
    CacheModel l1(smallCache(1024, 2, 64, "l1"));
    CacheModel l2(smallCache(4096, 4, 64, "l2"));
    l1.linkNextLevel(&l2);

    CacheAccessResult miss = l1.access(0x0, false);
    // l1 hit latency + l2 fill (which itself missed into nothing).
    EXPECT_GE(miss.latency,
              l1.params().hitLatency + l2.params().hitLatency);
    CacheAccessResult hit = l1.access(0x0, false);
    EXPECT_EQ(hit.latency, l1.params().hitLatency);
}

// ---- Differential oracle -------------------------------------------------

namespace
{

/**
 * The naive reference: each set is a std::list of resident lines in
 * LRU order (front = most recently used), found by linear search. No
 * tag/index bit tricks, no timestamps. Same policy as CacheModel:
 * write-back, write-allocate with no refill on a write miss, a dirty
 * victim written back at its own address and charged to the class
 * that allocated it, and invalidateAll writing every dirty line back.
 */
class NaiveCache
{
  public:
    explicit NaiveCache(const CacheParams &p)
        : lineBytes(p.lineBytes), ways(p.ways),
          sets(p.sizeBytes / (p.lineBytes * p.ways))
    {}

    CacheAccessResult
    access(Addr addr, bool write, TrafficClass cls)
    {
        const Addr line = addr / lineBytes;
        std::list<Line> &set = sets[line % sets.size()];
        CacheAccessResult r;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                hits++;
                it->dirty = it->dirty || write;
                set.splice(set.begin(), set, it);
                r.hit = true;
                return r;
            }
        }
        misses++;
        if (set.size() == ways) {
            const Line victim = set.back();
            set.pop_back();
            if (victim.dirty) {
                writeBack(victim);
                r.writeback = true;
                r.writebackAddr = victim.line * lineBytes;
            }
        }
        if (!write)
            fills++;
        set.push_front({line, write, cls});
        return r;
    }

    void
    invalidateAll()
    {
        for (std::list<Line> &set : sets) {
            for (const Line &l : set)
                if (l.dirty)
                    writeBack(l);
            set.clear();
        }
    }

    u64 hits = 0, misses = 0, writebacks = 0, fills = 0;
    u64 writebackBytes[4] = {0, 0, 0, 0};

  private:
    struct Line
    {
        Addr line;
        bool dirty;
        TrafficClass cls;
    };

    void
    writeBack(const Line &l)
    {
        writebacks++;
        writebackBytes[static_cast<u8>(l.cls)] += lineBytes;
    }

    u64 lineBytes;
    std::size_t ways;
    std::vector<std::list<Line>> sets;
};

/** Which earlier line a stream's repeated accesses return to. */
enum class Repeat
{
    None,           //!< every access picks a fresh line
    LastLine,       //!< the line just accessed (AAB...)
    LineBeforeLast, //!< the line accessed before that one (ABAB...)
};

/**
 * Drive CacheModel and NaiveCache with the same seeded stream and
 * compare every access, then the totals. Most accesses land in a few
 * hot sets with three times as many candidate lines as ways, so LRU
 * evictions of clean and dirty lines happen well before the next
 * invalidateAll even in the 4096-line L2; the rest scatter over a
 * wide footprint. With @p repeat, about half the accesses, reads and
 * writes alike, return to an earlier line: the last one, as the
 * horizontal texel pairs of a bilinear sample do, or the one before
 * it, as a sample's two texel rows alternate.
 */
void
expectMatchesNaive(const CacheParams &params, u64 seed,
                   Repeat repeat = Repeat::None)
{
    SCOPED_TRACE(params.name);
    CacheModel model(params);
    NaiveCache naive(params);
    Rng rng(seed);
    const u64 numSets = params.sizeBytes / (params.lineBytes * params.ways);
    const u64 hotSets = std::min<u64>(numSets, 8);
    const int accesses = 20000;
    u64 dirtyEvictions = 0;
    u64 repeatWrites = 0;
    Addr line = 0, lineBefore = 0;
    for (int i = 0; i < accesses; i++) {
        if (i % 300 == 299) {
            model.invalidateAll();
            naive.invalidateAll();
        }
        const bool repeats =
            repeat != Repeat::None && i > 0 && rng.nextBounded(2) == 0;
        if (!repeats) {
            lineBefore = line;
            line = rng.nextBounded(4) != 0
                ? rng.nextBounded(3 * params.ways) * numSets
                    + rng.nextBounded(hotSets)
                : rng.nextBounded(1 << 20);
        } else if (repeat == Repeat::LineBeforeLast) {
            std::swap(line, lineBefore);
        }
        const Addr addr =
            line * params.lineBytes + rng.nextBounded(params.lineBytes);
        const bool write = rng.nextBounded(3) == 0;
        repeatWrites += repeats && write;
        const auto cls = static_cast<TrafficClass>(rng.nextBounded(4));

        const CacheAccessResult got = model.access(addr, write, cls);
        const CacheAccessResult want = naive.access(addr, write, cls);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        ASSERT_EQ(got.writebackAddr, want.writebackAddr)
            << "access " << i;
        dirtyEvictions += want.writeback;
    }
    model.invalidateAll();
    naive.invalidateAll();

    EXPECT_EQ(model.hits(), naive.hits);
    EXPECT_EQ(model.misses(), naive.misses);
    EXPECT_EQ(model.writebacks(), naive.writebacks);
    EXPECT_EQ(model.fills(), naive.fills);
    for (u8 c = 0; c < 4; c++)
        EXPECT_EQ(model.writebackBytes(static_cast<TrafficClass>(c)),
                  naive.writebackBytes[c])
            << "class " << int(c);
    // The stream must exercise what it claims to.
    EXPECT_GT(naive.hits, 0u);
    EXPECT_GT(naive.misses, naive.fills); // write misses allocate
    EXPECT_GT(dirtyEvictions, 0u);
    EXPECT_GT(naive.writebacks, dirtyEvictions); // invalidateAll too
    if (repeat != Repeat::None) {
        EXPECT_GT(repeatWrites, 0u);
    }
}

} // namespace

TEST(CacheOracle, TableOneGeometriesMatchNaiveLru)
{
    const GpuConfig cfg;
    for (const CacheParams *p :
         {&cfg.textureCache, &cfg.tileCache, &cfg.l2Cache})
        expectMatchesNaive(*p, 0x5eed0000 + p->sizeBytes);
}

TEST(CacheOracle, FourSetTwoWayConflictsMatchNaiveLru)
{
    // 4 sets x 2 ways: nearly every access conflicts.
    expectMatchesNaive(smallCache(4 * 2 * 64, 2, 64, "4set2way"), 42);
}

TEST(CacheOracle, RepeatedLinesMatchNaiveLru)
{
    // CacheModel answers a repeat of the last line from a memo without
    // scanning the set. A repeated write must still dirty the line,
    // and a repeat right after invalidateAll must miss.
    const GpuConfig cfg;
    expectMatchesNaive(cfg.textureCache, 0x4e9e47, Repeat::LastLine);
    expectMatchesNaive(cfg.l2Cache, 0x4e9e48, Repeat::LastLine);
    expectMatchesNaive(smallCache(16 * 64, 1, 64, "16set1way"), 0x4e9e49,
                       Repeat::LastLine);
}

TEST(CacheOracle, ReturnsToTheLineBeforeLastMatchNaiveLru)
{
    // The memo also answers the line before last. A miss whose victim
    // way holds a memo line must drop it: in the 1-way cache every
    // conflicting miss evicts the last line, and in the 4-set 2-way
    // cache a miss in the set of both memo lines evicts the older one.
    // invalidateAll must clear both lines.
    const GpuConfig cfg;
    expectMatchesNaive(cfg.textureCache, 0xabab01, Repeat::LineBeforeLast);
    expectMatchesNaive(cfg.l2Cache, 0xabab02, Repeat::LineBeforeLast);
    expectMatchesNaive(smallCache(16 * 64, 1, 64, "16set1way"), 0xabab03,
                       Repeat::LineBeforeLast);
    expectMatchesNaive(smallCache(4 * 2 * 64, 2, 64, "4set2way"), 0xabab04,
                       Repeat::LineBeforeLast);
}
