/**
 * @file
 * Interface through which the functional pipeline reports its memory
 * accesses to the timing model (caches + DRAM). A null implementation
 * lets the functional pipeline run standalone in unit tests.
 */

#ifndef REGPU_GPU_MEMIFACE_HH
#define REGPU_GPU_MEMIFACE_HH

#include <span>

#include "common/types.hh"

namespace regpu
{

/** Traffic classes reported to DRAM (Fig. 15b split). */
enum class TrafficClass : u8
{
    Geometry,   //!< vertex fetches + parameter-buffer writes
    Primitives, //!< parameter-buffer reads by the Tile Scheduler
    Texels,     //!< texture fetches
    Colors,     //!< Color Buffer flushes to the Frame Buffer
};

/**
 * Sink for simulated memory accesses.
 */
class MemTraceSink
{
  public:
    virtual ~MemTraceSink() = default;

    /** Vertex Fetcher read through the Vertex Cache. */
    virtual void vertexFetch(Addr addr, u32 bytes) = 0;

    /** Polygon List Builder write to the Parameter Buffer (via L2). */
    virtual void parameterWrite(Addr addr, u32 bytes) = 0;

    /** Tile Scheduler read of a tile's primitives (via Tile Cache). */
    virtual void parameterRead(Addr addr, u32 bytes) = 0;

    /** Fragment-shader texel fetch (via a Texture Cache). */
    virtual void texelFetch(u32 textureCacheIndex, Addr addr) = 0;

    /** One texture sample's texel fetches, in order, through one
     *  Texture Cache: the rasterizer's per-sample call. Sinks that
     *  only care about single fetches keep this default. */
    virtual void
    texelFetches(u32 textureCacheIndex, std::span<const Addr> addrs)
    {
        for (Addr addr : addrs)
            texelFetch(textureCacheIndex, addr);
    }

    /** Color Buffer flush of one tile to the Frame Buffer. */
    virtual void colorFlush(Addr addr, u32 bytes) = 0;

    /** Frame Buffer read-back (blending against preserved contents). */
    virtual void colorRead(Addr addr, u32 bytes) = 0;
};

/** No-op sink for functional-only runs. */
class NullMemSink : public MemTraceSink
{
  public:
    void vertexFetch(Addr, u32) override {}
    void parameterWrite(Addr, u32) override {}
    void parameterRead(Addr, u32) override {}
    void texelFetch(u32, Addr) override {}
    void colorFlush(Addr, u32) override {}
    void colorRead(Addr, u32) override {}
};

} // namespace regpu

#endif // REGPU_GPU_MEMIFACE_HH
