/**
 * @file
 * Timing decorators for the traced pass of regpu_bench.
 *
 * Every layer is timed from outside, around the calls the pipeline
 * makes through its public virtual interfaces: FrameSource (scene),
 * MemTraceSink (cache model), PipelineHooks and FragmentMemoClient
 * (the technique under test). Each decorator forwards every call to
 * the object it wraps, so the simulated program is unchanged; the
 * benchmark checks that by comparing the traced pass's counters with
 * an untraced Simulator::run of the same cell.
 *
 * Accumulators are per thread: with --tile-jobs > 1 the pool runs
 * queryRenderTile / prepareFlushTile on worker threads while the
 * calling thread replays memory traffic and makes the counted hook
 * calls. The calling thread's accumulator is the one whose self-times
 * partition the frame; worker time is reported as CPU time.
 */

#ifndef REGPU_PERFBENCH_LAYER_TRACE_HH
#define REGPU_PERFBENCH_LAYER_TRACE_HH

#include <array>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "gpu/memiface.hh"
#include "gpu/pipeline.hh"
#include "gpu/tile_pool.hh"
#include "scene/frame_source.hh"

namespace perfbench
{

using regpu::u32;
using regpu::u64;

inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Layers a timed call is charged to. */
enum Layer : unsigned
{
    Emit,        //!< FrameSource::emitFrame
    Mem,         //!< MemTraceSink calls (cache model + DRAM)
    EndFrame,    //!< MemSystem::endFrame
    ReSig,       //!< every RenderingElimination hook (CRC + compares)
    TeFlush,     //!< TE prepareFlushTile + shouldFlushTilePre
    MemoLookups, //!< FragmentMemoClient calls
    HookOther,   //!< every other hook (Baseline, TE/Memo frame hooks)
    NumLayers,
};

/**
 * One call in samplePeriod[layer] is timed; every call is counted.
 * MemoLookups runs once per fragment (millions of calls of ~50 ns,
 * close to the cost of a clock read), so its self-time is the sampled
 * mean times the call count. Mem calls are batched instead (see
 * TimedMemSink) and every batch is timed.
 */
constexpr std::array<u32, NumLayers> samplePeriod{1, 1, 1, 1, 1, 32, 1};

/** Layers that run nested inside GraphicsPipeline::renderFrame. */
constexpr std::array<Layer, 5> renderChildren{Mem, ReSig, TeFlush,
                                              MemoLookups, HookOther};

/** Per-thread (or per-interval) layer sums. */
struct ThreadAcc
{
    std::array<u64, NumLayers> ns{};     //!< wall time inside probes
    std::array<u64, NumLayers> probes{}; //!< timed intervals
    std::array<u64, NumLayers> units{};  //!< calls the probes covered
    std::array<u64, NumLayers> calls{};  //!< all calls
    u32 rng = 0x9E3779B9u;               //!< sampling state

    void
    addDelta(const ThreadAcc &end, const ThreadAcc &begin)
    {
        for (unsigned l = 0; l < NumLayers; l++) {
            ns[l] += end.ns[l] - begin.ns[l];
            probes[l] += end.probes[l] - begin.probes[l];
            units[l] += end.units[l] - begin.units[l];
            calls[l] += end.calls[l] - begin.calls[l];
        }
    }
};

/** Calibrated cost of the instrumentation itself. */
struct ProbeCost
{
    double inNs = 0;     //!< per probe, inside the interval it times
    double outNs = 0;    //!< per probe, in the enclosing interval
    double recordNs = 0; //!< per mem event: decorator + recording
};

/** Estimated self-time of @p layer: probed time (less the probes'
 *  own cost) scaled from the calls the probes covered to all calls. */
inline double
estimateNs(const ThreadAcc &a, Layer layer, const ProbeCost &probe)
{
    if (a.units[layer] == 0)
        return 0;
    const double probed = static_cast<double>(a.ns[layer])
        - probe.inNs * static_cast<double>(a.probes[layer]);
    return probed * static_cast<double>(a.calls[layer])
        / static_cast<double>(a.units[layer]);
}

/**
 * Owner of the per-thread accumulators of one traced pass. Threads
 * register on first use; the pool's workers are respawned every
 * frame, so a pass holds one entry per worker lifetime.
 */
class LayerClock
{
  public:
    LayerClock();
    LayerClock(const LayerClock &) = delete;
    LayerClock &operator=(const LayerClock &) = delete;

    /** This thread's accumulator. */
    ThreadAcc &local();

    /** The accumulator of the thread that created this clock (the
     *  thread calling renderFrame, which merges tiles). */
    const ThreadAcc &caller() const { return *callerAcc; }

    /** Sum over every thread that ran a timed call. */
    ThreadAcc total() const;

  private:
    mutable std::mutex mutex;
    std::deque<ThreadAcc> accs; // guarded by mutex; deque keeps addresses
    ThreadAcc *callerAcc = nullptr;
    u64 generation;
};

/** Counts @p units calls to one layer and, if sampled, charges their
 *  wall time. */
class Timed
{
  public:
    Timed(LayerClock &clock, Layer layer_, u64 units_ = 1)
        : acc(clock.local()), layer(layer_), units(units_)
    {
        acc.calls[layer] += units;
        if (samplePeriod[layer] > 1) {
            acc.rng ^= acc.rng << 13;
            acc.rng ^= acc.rng >> 17;
            acc.rng ^= acc.rng << 5;
            if (acc.rng & (samplePeriod[layer] - 1))
                return;
        }
        t0 = nowNs();
    }
    ~Timed()
    {
        if (t0 == 0)
            return;
        acc.ns[layer] += nowNs() - t0;
        acc.probes[layer]++;
        acc.units[layer] += units;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    ThreadAcc &acc;
    Layer layer;
    u64 units;
    u64 t0 = 0;
};

/** Measure ProbeCost on this thread with empty Timed scopes. */
ProbeCost calibrateProbe();

class TimedSource : public regpu::FrameSource
{
  public:
    TimedSource(const regpu::FrameSource &inner_, LayerClock &clock_)
        : inner(inner_), clock(clock_)
    {}
    const std::string &name() const override { return inner.name(); }
    const std::vector<regpu::Texture> &
    textures() const override
    {
        return inner.textures();
    }
    regpu::FrameCommands
    emitFrame(u64 frame) const override
    {
        Timed t(clock, Emit);
        return inner.emitFrame(frame);
    }

  private:
    const regpu::FrameSource &inner;
    LayerClock &clock;
};

/**
 * Mem-sink decorator. A clock read costs about as much as one texel
 * fetch, so calls are not timed one by one: they are recorded, in
 * order, and replayed into the wrapped sink batchEvents at a time
 * under one probe. Nothing reads the memory model during a frame, so
 * deferring an access until the batch flushes changes no result; the
 * caller flushes at every phase mark and before MemSystem::endFrame.
 * Also counts texel fetches and MRU line re-hits (a fetch to the same
 * line as the previous fetch on that texture cache). Called only from
 * the thread that calls renderFrame.
 */
class TimedMemSink : public regpu::MemTraceSink
{
  public:
    static constexpr std::size_t batchEvents = 128;

    TimedMemSink(regpu::MemTraceSink &inner_, LayerClock &clock_,
                 u32 textureLineBytes, u32 numTextureCaches)
        : inner(inner_), clock(clock_), lineBytes(textureLineBytes),
          lastLine(numTextureCaches, ~u64{0})
    {}

    void
    vertexFetch(regpu::Addr addr, u32 bytes) override
    {
        pending.vertexFetch(addr, bytes);
        flushIfFull();
    }
    void
    parameterWrite(regpu::Addr addr, u32 bytes) override
    {
        pending.parameterWrite(addr, bytes);
        flushIfFull();
    }
    void
    parameterRead(regpu::Addr addr, u32 bytes) override
    {
        pending.parameterRead(addr, bytes);
        flushIfFull();
    }
    void
    texelFetch(u32 cache, regpu::Addr addr) override
    {
        const u64 line = addr / lineBytes;
        if (cache < lastLine.size()) {
            texelMruRehits += lastLine[cache] == line;
            lastLine[cache] = line;
        }
        texelFetches++;
        pending.texelFetch(cache, addr);
        flushIfFull();
    }
    void
    colorFlush(regpu::Addr addr, u32 bytes) override
    {
        pending.colorFlush(addr, bytes);
        flushIfFull();
    }
    void
    colorRead(regpu::Addr addr, u32 bytes) override
    {
        pending.colorRead(addr, bytes);
        flushIfFull();
    }

    /** Apply every pending access to the wrapped sink. */
    void
    flush()
    {
        if (pending.size() == 0)
            return;
        {
            Timed t(clock, Mem, pending.size());
            pending.replay(inner);
        }
        pending.clear();
    }

    u64 texelFetches = 0;
    u64 texelMruRehits = 0;

  private:
    void
    flushIfFull()
    {
        if (pending.size() >= batchEvents)
            flush();
    }

    regpu::MemTraceSink &inner;
    LayerClock &clock;
    u64 lineBytes;
    std::vector<u64> lastLine;
    regpu::MemEventRecorder pending;
};

class TimedMemoClient : public regpu::FragmentMemoClient
{
  public:
    TimedMemoClient(regpu::FragmentMemoClient &inner_, LayerClock &clock_)
        : inner(inner_), clock(clock_)
    {}
    void
    tileBegin(regpu::TileId tile) override
    {
        Timed t(clock, MemoLookups);
        inner.tileBegin(tile);
    }
    bool
    lookup(u32 signature, regpu::Color &reused) override
    {
        Timed t(clock, MemoLookups);
        return inner.lookup(signature, reused);
    }
    void
    insert(u32 signature, regpu::Color color) override
    {
        Timed t(clock, MemoLookups);
        inner.insert(signature, color);
    }

  private:
    regpu::FragmentMemoClient &inner;
    LayerClock &clock;
};

/** Wall-clock mark taken on the calling thread at the entry of
 *  frameBegin / geometryDone / frameEnd, with that thread's layer
 *  sums at that instant. */
struct PhaseMark
{
    u64 t = 0;
    ThreadAcc acc;
};

/**
 * Pass-through PipelineHooks decorator. Forwards every virtual,
 * including the tile-pool contract, so the technique keeps its code
 * path; records the frame's phase boundaries.
 *
 * The pool-contract virtuals carry no `override`: they are forwarded
 * while the interface has them, and the benchmark still builds, on
 * the parent commit as on the change, once a change folds them away.
 */
class TimedHooks : public regpu::PipelineHooks
{
  public:
    /** @param flushLayer layer for prepareFlushTile/shouldFlushTilePre
     *  @param otherLayer layer for every other call */
    TimedHooks(regpu::PipelineHooks &inner_, LayerClock &clock_,
               TimedMemSink &mem_, Layer otherLayer_, Layer flushLayer_)
        : inner(inner_), clock(clock_), mem(mem_), otherLayer(otherLayer_),
          flushLayer(flushLayer_)
    {
        if (regpu::FragmentMemoClient *client = inner.memoClient())
            memo = std::make_unique<TimedMemoClient>(*client, clock);
    }

    void
    frameBegin(u64 frameIndex, bool reSafe) override
    {
        mark(frameBeginMark);
        Timed t(clock, otherLayer);
        inner.frameBegin(frameIndex, reSafe);
    }
    void
    onDrawcallConstants(u32 drawIndex, const regpu::DrawCall &draw) override
    {
        Timed t(clock, otherLayer);
        inner.onDrawcallConstants(drawIndex, draw);
    }
    void
    onPrimitiveBinned(const regpu::Primitive &prim,
                      const regpu::DrawCall &draw,
                      const std::vector<regpu::TileId> &tiles) override
    {
        primitivesBinned++;
        Timed t(clock, otherLayer);
        inner.onPrimitiveBinned(prim, draw, tiles);
    }
    void
    geometryDone() override
    {
        mark(geometryDoneMark);
        Timed t(clock, otherLayer);
        inner.geometryDone();
    }
    bool
    shouldRenderTile(regpu::TileId tile) override
    {
        Timed t(clock, otherLayer);
        return inner.shouldRenderTile(tile);
    }
    bool
    shouldFlushTile(regpu::TileId tile,
                    const std::vector<regpu::Color> &colors) override
    {
        Timed t(clock, flushLayer);
        return inner.shouldFlushTile(tile, colors);
    }
    void
    frameEnd() override
    {
        mark(frameEndMark);
        Timed t(clock, otherLayer);
        inner.frameEnd();
    }
    regpu::FragmentMemoClient *
    memoClient() override
    {
        return memo.get();
    }

    // ---- tile-pool contract --------------------------------------------
    bool tileWorkersSafe() const { return inner.tileWorkersSafe(); }
    bool
    queryRenderTile(regpu::TileId tile)
    {
        Timed t(clock, otherLayer);
        return inner.queryRenderTile(tile);
    }
    u32
    prepareFlushTile(regpu::TileId tile,
                     const std::vector<regpu::Color> &colors)
    {
        Timed t(clock, flushLayer);
        return inner.prepareFlushTile(tile, colors);
    }
    bool
    shouldFlushTilePre(regpu::TileId tile,
                       const std::vector<regpu::Color> &colors,
                       u32 prepared)
    {
        Timed t(clock, flushLayer);
        return inner.shouldFlushTilePre(tile, colors, prepared);
    }

    PhaseMark frameBeginMark, geometryDoneMark, frameEndMark;
    u64 primitivesBinned = 0;

  private:
    void
    mark(PhaseMark &m)
    {
        mem.flush();
        m.acc = clock.caller();
        m.t = nowNs();
    }

    regpu::PipelineHooks &inner;
    LayerClock &clock;
    TimedMemSink &mem;
    Layer otherLayer;
    Layer flushLayer;
    std::unique_ptr<TimedMemoClient> memo;
};

/** Baseline as a hooks object: the default (render and flush
 *  everything) with the pool split enabled, which is the path the
 *  pipeline takes for Baseline when no hooks are attached. No
 *  `override`, for the same reason as in TimedHooks. */
class BaselineHooks : public regpu::PipelineHooks
{
  public:
    bool tileWorkersSafe() const { return true; }
};

} // namespace perfbench

#endif // REGPU_PERFBENCH_LAYER_TRACE_HH
