/**
 * @file
 * Main-memory model: dual-channel LPDDR3 abstraction with the Table I
 * envelope (4 B/cycle sustained bandwidth, 50-100-cycle latency).
 *
 * A full DRAMSim2 replacement is not needed for the paper's effects:
 * RE's memory-side saving is bandwidth-dominated. The model tracks
 * per-class byte traffic split by direction (demand reads, streaming
 * writes, dirty writebacks - the Fig. 15b byte split plus the
 * writeback bytes the old flat model dropped), charges
 * row-locality-dependent latency, and queues requests on the data
 * bus: a request arriving while earlier transfers still occupy the
 * bus waits for its turn (bounded by the finite request queue), so
 * bursty miss streams see contention instead of a constant min/max
 * latency.
 */

#ifndef REGPU_TIMING_DRAM_HH
#define REGPU_TIMING_DRAM_HH

#include <cstddef>
#include <vector>

#include "common/config.hh"
#include "gpu/memiface.hh"

namespace regpu
{

/** Direction of a DRAM access (second axis of the traffic split). */
enum class DramDir : u8
{
    Read,      //!< demand fill (cache refill, streaming read)
    Write,     //!< streaming store (Color Buffer flush)
    Writeback, //!< dirty line evicted from an on-chip cache
};

/**
 * Per-traffic-class, per-direction byte counters (Fig. 15b split).
 * operator[] keeps the historical "total bytes of this class" view
 * the reports and benches consume.
 */
struct DramTraffic
{
    u64 read[4] = {0, 0, 0, 0};
    u64 write[4] = {0, 0, 0, 0};
    u64 writeback[4] = {0, 0, 0, 0};

    /** All bytes of one class, regardless of direction. */
    u64
    operator[](TrafficClass c) const
    {
        const auto i = static_cast<u8>(c);
        return read[i] + write[i] + writeback[i];
    }

    u64 reads(TrafficClass c) const { return read[static_cast<u8>(c)]; }
    u64 writes(TrafficClass c) const { return write[static_cast<u8>(c)]; }
    u64 writebacks(TrafficClass c) const
    { return writeback[static_cast<u8>(c)]; }

    u64
    totalReads() const
    {
        return read[0] + read[1] + read[2] + read[3];
    }

    u64
    totalWrites() const
    {
        return write[0] + write[1] + write[2] + write[3];
    }

    u64
    totalWritebacks() const
    {
        return writeback[0] + writeback[1] + writeback[2] + writeback[3];
    }

    u64 total() const
    { return totalReads() + totalWrites() + totalWritebacks(); }

    /** Accumulate another run's traffic (sweep aggregation). */
    void
    merge(const DramTraffic &other)
    {
        for (int i = 0; i < 4; i++) {
            read[i] += other.read[i];
            write[i] += other.write[i];
            writeback[i] += other.writeback[i];
        }
    }

    /** Subtract an earlier snapshot (per-frame deltas). */
    DramTraffic
    since(const DramTraffic &snapshot) const
    {
        DramTraffic d;
        for (int i = 0; i < 4; i++) {
            d.read[i] = read[i] - snapshot.read[i];
            d.write[i] = write[i] - snapshot.write[i];
            d.writeback[i] = writeback[i] - snapshot.writeback[i];
        }
        return d;
    }
};

/**
 * Bandwidth/latency DRAM model with a bounded request queue.
 *
 * Time advances with the request stream: each access arrives one GPU
 * cycle after the previous one (a saturating producer), and the data
 * bus frees at the rate of config.dramBytesPerCycle. A request that
 * finds the bus busy queues behind the outstanding transfers; the
 * queue holds config.dramQueueEntries in-flight requests, and when it
 * is full the producer itself stalls until the oldest transfer
 * completes - so a small read arriving behind large streaming writes
 * waits for the *actual* backlog, whatever the size mix. drain()
 * empties the queue at a natural quiesce point (frame boundary).
 */
class DramModel
{
  public:
    explicit DramModel(const GpuConfig &_config) : config(_config) {}

    /**
     * One burst of @p bytes at @p addr for traffic class @p cls in
     * direction @p dir. Zero-byte bursts are no-ops.
     * @return the access latency in cycles (queueing + row access)
     */
    Cycles access(Addr addr, u32 bytes, TrafficClass cls,
                  DramDir dir = DramDir::Read);

    /** Let the request queue empty (frame boundary / quiesce). */
    void drain() { if (busFreeAt > now) now = busFreeAt; }

    /** Total cycles the data bus was occupied. */
    Cycles busyCycles() const { return busy_; }
    const DramTraffic &traffic() const { return traffic_; }
    u64 accesses() const { return accesses_; }
    u64 rowMisses() const { return rowMisses_; }

    /** Average access latency so far (includes queueing delay). */
    double
    averageLatency() const
    {
        return accesses_ ? static_cast<double>(latencySum_) / accesses_
                         : 0.0;
    }

    /**
     * Average uncontended (row-only) latency so far. The cycle model
     * charges the prefetch-friendly vertex stream at this rate:
     * queueing delay is bandwidth contention, which the per-tile
     * compute-vs-bandwidth max already accounts for - charging it
     * into geometry stalls as well would double-count it.
     */
    double
    averageRowLatency() const
    {
        return accesses_
                   ? static_cast<double>(rowLatencySum_) / accesses_
                   : 0.0;
    }

  private:
    const GpuConfig &config;
    DramTraffic traffic_;
    Cycles busy_ = 0;
    u64 accesses_ = 0;
    u64 rowMisses_ = 0;
    u64 latencySum_ = 0;
    u64 rowLatencySum_ = 0;
    Addr openRow[2] = {~0ull, ~0ull};
    // Contention clock: `now` is the arrival time of the latest
    // request, `busFreeAt` the cycle the bus finishes all transfers
    // accepted so far. `inflight` is a ring of the completion times
    // of the last dramQueueEntries transfers (lazily sized on first
    // access); its head is the oldest - the slot a full queue waits
    // on.
    Cycles now = 0;
    Cycles busFreeAt = 0;
    std::vector<Cycles> inflight;
    std::size_t inflightHead = 0;
};

} // namespace regpu

#endif // REGPU_TIMING_DRAM_HH
