/**
 * @file
 * The ordered worker pool, used at two granularities: the raster
 * phase runs one frame's tiles on it, and ParallelRunner runs a
 * sweep's cells on it. Work steps run on worker threads in any
 * order, while the calling thread merges results back in strict
 * ascending index order, which keeps output bit-identical for any
 * worker count (docs/ARCHITECTURE.md spells out the model).
 *
 * The split the tile loop feeds this with:
 *
 *  - step(tile), the pipeline's phase 1: touches only that tile's
 *    private TileTask slot plus state that is read-only during the
 *    raster phase (binned frame, draws, textures, signature buffers),
 *    per-tile-disjoint (the Frame Buffer's tile regions, the memo's
 *    tile streams) or per-thread (the memo LUT). Any claim order is
 *    sound.
 *  - merge(tile): everything order-sensitive — MemSystem replay,
 *    StatRegistry folds, signature-buffer writes, Frame Buffer tile
 *    flushes — executed by the caller, eagerly, for tile 0..N-1 as
 *    each step result becomes ready.
 *
 * With jobs <= 1 no threads are spawned and the pair is executed
 * inline per index, which is *definitionally* the serial loop; the
 * parallel schedule is equivalent because step writes are disjoint
 * and merge order is fixed.
 */

#ifndef REGPU_GPU_TILE_POOL_HH
#define REGPU_GPU_TILE_POOL_HH

#include <functional>
#include <vector>

#include "common/types.hh"
#include "gpu/memiface.hh"

namespace regpu
{

/**
 * MemTraceSink that records every access instead of forwarding it, so
 * a worker can render a tile without touching the shared (cache-state-
 * order-sensitive) MemSystem; the merge phase then replays the events
 * into the real sink in exact renderTile emission order. One recorder
 * lives in each tile's task for one frame; clear() keeps the capacity
 * for a caller that records batch after batch into the same one.
 *
 * A texture sample is one event whose addresses sit in a side array,
 * so the replay makes one texelFetches call per sample, as the
 * rasterizer did; a lone texelFetch is recorded as a sample of one.
 */
class MemEventRecorder : public MemTraceSink
{
  public:
    void vertexFetch(Addr addr, u32 bytes) override
    {
        events.push_back({addr, bytes, Kind::VertexFetch});
    }
    void parameterWrite(Addr addr, u32 bytes) override
    {
        events.push_back({addr, bytes, Kind::ParameterWrite});
    }
    void parameterRead(Addr addr, u32 bytes) override
    {
        events.push_back({addr, bytes, Kind::ParameterRead});
    }
    void texelFetch(u32 textureCacheIndex, Addr addr) override
    {
        texelFetches(textureCacheIndex, {&addr, 1});
    }
    void
    texelFetches(u32 textureCacheIndex,
                 std::span<const Addr> addrs) override
    {
        events.push_back({addrs.size(), textureCacheIndex,
                          Kind::TexelFetches});
        texels.insert(texels.end(), addrs.begin(), addrs.end());
    }
    void colorFlush(Addr addr, u32 bytes) override
    {
        events.push_back({addr, bytes, Kind::ColorFlush});
    }
    void colorRead(Addr addr, u32 bytes) override
    {
        events.push_back({addr, bytes, Kind::ColorRead});
    }

    /** Forward every recorded access to @p sink, in recorded order. */
    void
    replay(MemTraceSink &sink) const
    {
        const Addr *texel = texels.data();
        for (const Event &e : events) {
            switch (e.kind) {
              case Kind::VertexFetch:
                sink.vertexFetch(e.addr, e.arg);
                break;
              case Kind::ParameterWrite:
                sink.parameterWrite(e.addr, e.arg);
                break;
              case Kind::ParameterRead:
                sink.parameterRead(e.addr, e.arg);
                break;
              case Kind::TexelFetches:
                sink.texelFetches(e.arg, {texel, e.addr});
                texel += e.addr;
                break;
              case Kind::ColorFlush:
                sink.colorFlush(e.addr, e.arg);
                break;
              case Kind::ColorRead:
                sink.colorRead(e.addr, e.arg);
                break;
            }
        }
    }

    void
    clear()
    {
        events.clear();
        texels.clear();
    }
    std::size_t size() const { return events.size(); }

  private:
    enum class Kind : u8
    {
        VertexFetch,
        ParameterWrite,
        ParameterRead,
        TexelFetches,
        ColorFlush,
        ColorRead,
    };
    struct Event
    {
        Addr addr; //!< the address, or TexelFetches' address count
        u32 arg;   //!< bytes, or the texture-cache index
        Kind kind;
    };
    static_assert(sizeof(Event) == 16);

    std::vector<Event> events;
    std::vector<Addr> texels; //!< every sample's addresses, in order
};

/**
 * Execute @p step for every index in [0, count) on up to @p jobs
 * worker threads (any completion order), and @p merge on the calling
 * thread in strict ascending index order; merge(i) runs only after
 * step(i) returned, eagerly as results arrive (the caller never waits
 * for the whole batch before folding).
 *
 * jobs <= 1 executes both inline per index with no thread spawned.
 * Worker exceptions are captured first-wins and rethrown on the
 * calling thread after all workers joined. When @p workerSpan is set,
 * each worker's participation is wrapped in an ungated "gpu" ObsScope
 * of that name, with the worker index and @p count as args, so
 * Perfetto timelines show pool occupancy.
 */
void runOrdered(std::size_t count, unsigned jobs,
                const std::function<void(std::size_t)> &step,
                const std::function<void(std::size_t)> &merge,
                const char *workerSpan = nullptr);

} // namespace regpu

#endif // REGPU_GPU_TILE_POOL_HH
