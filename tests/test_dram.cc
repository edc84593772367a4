/**
 * @file
 * DRAM model tests: bandwidth occupancy, latency envelope, queueing
 * contention, direction-aware traffic classification.
 */

#include <gtest/gtest.h>

#include "timing/dram.hh"

using namespace regpu;

TEST(DramModel, TrafficClassifiedByClass)
{
    GpuConfig cfg;
    DramModel d(cfg);
    d.access(0x1000, 64, TrafficClass::Texels);
    d.access(0x2000, 128, TrafficClass::Colors);
    d.access(0x3000, 32, TrafficClass::Primitives);
    EXPECT_EQ(d.traffic()[TrafficClass::Texels], 64u);
    EXPECT_EQ(d.traffic()[TrafficClass::Colors], 128u);
    EXPECT_EQ(d.traffic()[TrafficClass::Primitives], 32u);
    EXPECT_EQ(d.traffic().total(), 224u);
}

TEST(DramModel, TrafficSplitByDirection)
{
    GpuConfig cfg;
    DramModel d(cfg);
    d.access(0x1000, 64, TrafficClass::Texels, DramDir::Read);
    d.access(0x2000, 128, TrafficClass::Colors, DramDir::Write);
    d.access(0x3000, 64, TrafficClass::Geometry, DramDir::Writeback);
    EXPECT_EQ(d.traffic().reads(TrafficClass::Texels), 64u);
    EXPECT_EQ(d.traffic().writes(TrafficClass::Colors), 128u);
    EXPECT_EQ(d.traffic().writebacks(TrafficClass::Geometry), 64u);
    EXPECT_EQ(d.traffic().totalReads(), 64u);
    EXPECT_EQ(d.traffic().totalWrites(), 128u);
    EXPECT_EQ(d.traffic().totalWritebacks(), 64u);
    // operator[] keeps the per-class all-directions view.
    EXPECT_EQ(d.traffic()[TrafficClass::Colors], 128u);
    EXPECT_EQ(d.traffic().total(), 256u);
}

TEST(DramModel, TrafficMergeAndSince)
{
    GpuConfig cfg;
    DramModel d(cfg);
    d.access(0x1000, 64, TrafficClass::Texels, DramDir::Read);
    DramTraffic snapshot = d.traffic();
    d.access(0x2000, 32, TrafficClass::Colors, DramDir::Write);
    DramTraffic delta = d.traffic().since(snapshot);
    EXPECT_EQ(delta.total(), 32u);
    EXPECT_EQ(delta.writes(TrafficClass::Colors), 32u);
    EXPECT_EQ(delta.reads(TrafficClass::Texels), 0u);

    DramTraffic merged = snapshot;
    merged.merge(delta);
    EXPECT_EQ(merged.total(), d.traffic().total());
}

TEST(DramModel, ZeroByteAccessIsNoOp)
{
    GpuConfig cfg;
    DramModel d(cfg);
    EXPECT_EQ(d.access(0x1000, 0, TrafficClass::Texels), 0u);
    EXPECT_EQ(d.traffic().total(), 0u);
    EXPECT_EQ(d.accesses(), 0u);
    EXPECT_EQ(d.busyCycles(), 0u);
}

TEST(DramModel, BusyCyclesFollowBandwidth)
{
    GpuConfig cfg; // 4 B/cycle
    DramModel d(cfg);
    d.access(0x0, 400, TrafficClass::Geometry);
    EXPECT_EQ(d.busyCycles(), 100u);
}

TEST(DramModel, BusyCyclesRoundUp)
{
    GpuConfig cfg;
    DramModel d(cfg);
    d.access(0x0, 5, TrafficClass::Geometry);
    EXPECT_EQ(d.busyCycles(), 2u);
}

TEST(DramModel, IdleLatencyWithinTableOneEnvelope)
{
    GpuConfig cfg;
    DramModel d(cfg);
    for (int i = 0; i < 100; i++) {
        // Drain between accesses: an idle bus charges only the
        // row-access latency of Table I.
        d.drain();
        Cycles lat = d.access(static_cast<Addr>(i) * 4096, 64,
                              TrafficClass::Texels);
        EXPECT_GE(lat, cfg.dramMinLatency);
        EXPECT_LE(lat, cfg.dramMaxLatency);
    }
}

TEST(DramModel, OpenRowHitsAreFastWhenIdle)
{
    GpuConfig cfg;
    DramModel d(cfg);
    // Channels interleave at 64 B granularity: 0x10000 and 0x10080
    // land on the same channel and in the same 2 KB row.
    d.access(0x10000, 64, TrafficClass::Texels); // opens the row
    d.drain();
    Cycles lat = d.access(0x10080, 64, TrafficClass::Texels);
    EXPECT_EQ(lat, cfg.dramMinLatency);
}

TEST(DramModel, RowSwitchPaysMaxLatency)
{
    GpuConfig cfg;
    DramModel d(cfg);
    d.access(0x10000, 64, TrafficClass::Texels);
    d.drain();
    Cycles lat = d.access(0x90000, 64, TrafficClass::Texels);
    EXPECT_EQ(lat, cfg.dramMaxLatency);
    EXPECT_GE(d.rowMisses(), 1u);
}

TEST(DramModel, BackToBackBurstsQueueOnTheBus)
{
    GpuConfig cfg;
    DramModel d(cfg);
    // Same open row, so the row latency is constant: any growth is
    // pure queueing delay from bus occupancy.
    Cycles first = d.access(0x10000, 64, TrafficClass::Texels);
    Cycles second = d.access(0x10080, 64, TrafficClass::Texels);
    Cycles third = d.access(0x10100, 64, TrafficClass::Texels);
    EXPECT_GT(second, cfg.dramMinLatency);
    EXPECT_GT(third, second);
    (void)first;
}

TEST(DramModel, QueueDelayBoundedByQueueCapacity)
{
    GpuConfig cfg;
    DramModel d(cfg);
    const Cycles transfer = 64 / cfg.dramBytesPerCycle;
    const Cycles cap = cfg.dramQueueEntries * transfer;
    Cycles last = 0;
    for (int i = 0; i < 200; i++)
        last = d.access(0x10000 + static_cast<Addr>(i % 8) * 128, 64,
                        TrafficClass::Texels);
    // However long the burst, the queue holds dramQueueEntries
    // transfers: the exposed delay converges to a full queue's worth
    // of pending transfers (producer-throttled), never more.
    EXPECT_LE(last, cfg.dramMaxLatency + cap);
    EXPECT_GE(last, cfg.dramMinLatency + (cfg.dramQueueEntries - 2)
                                             * transfer);
}

TEST(DramModel, SmallReadBehindLargeWritesWaitsForRealBacklog)
{
    // A full queue of large streaming writes occupies the bus for
    // far longer than a line transfer: a small read arriving behind
    // them must see the *actual* backlog, not one scaled to its own
    // transfer size.
    GpuConfig cfg;
    DramModel d(cfg);
    for (u32 i = 0; i < cfg.dramQueueEntries; i++)
        d.access(0x4'0000'0000ull + i * 1024, 1024,
                 TrafficClass::Colors, DramDir::Write);
    Cycles lat = d.access(0x10000, 64, TrafficClass::Texels);
    // Backlog ~ entries x (1024 B / 4 B/cycle) = 16 x 256 cycles.
    const Cycles writeTransfer = 1024 / cfg.dramBytesPerCycle;
    EXPECT_GT(lat, writeTransfer); // far beyond one line's worth
    EXPECT_LE(lat, cfg.dramMaxLatency
                       + cfg.dramQueueEntries * writeTransfer);
}

TEST(DramModel, DrainResetsContention)
{
    GpuConfig cfg;
    DramModel d(cfg);
    for (int i = 0; i < 50; i++)
        d.access(0x10000, 64, TrafficClass::Texels);
    d.drain();
    Cycles lat = d.access(0x10080, 64, TrafficClass::Texels);
    EXPECT_EQ(lat, cfg.dramMinLatency); // same open row, idle bus
}

TEST(DramModel, AverageLatencyAtLeastRowMinimum)
{
    GpuConfig cfg;
    DramModel d(cfg);
    for (int i = 0; i < 50; i++)
        d.access(static_cast<Addr>(i % 3) * 65536, 64,
                 TrafficClass::Colors);
    EXPECT_GE(d.averageLatency(), cfg.dramMinLatency);
    // Queueing can exceed the row envelope, but not the queue bound.
    const Cycles cap =
        cfg.dramQueueEntries * (64 / cfg.dramBytesPerCycle);
    EXPECT_LE(d.averageLatency(), cfg.dramMaxLatency + cap);
}
