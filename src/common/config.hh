/**
 * @file
 * GPU configuration mirroring Table I of the paper (ARM Mali-450-like
 * baseline) plus switches for the redundancy-elimination techniques.
 */

#ifndef REGPU_COMMON_CONFIG_HH
#define REGPU_COMMON_CONFIG_HH

#include <ostream>
#include <string>

#include "common/types.hh"

namespace regpu
{

/** Geometry of one cache (see Table I). */
struct CacheParams
{
    std::string name;
    u32 lineBytes = 64;
    u32 ways = 2;
    u32 sizeBytes = 4 * KiB;
    Cycles hitLatency = 1;
};

/** Which redundancy-elimination technique drives a simulation. */
enum class Technique
{
    Baseline,              //!< plain TBR pipeline
    RenderingElimination,  //!< this paper: tile-input signatures
    TransactionElimination,//!< ARM TE: color signatures at flush
    FragmentMemoization,   //!< ISCA'14 PFR + fragment memoization
};

/** Printable name of a technique. */
const char *techniqueName(Technique t);

/**
 * Shared guard for memoization-LUT geometry: fatal() when @p ways is
 * zero, @p entries < @p ways, or @p entries is not a multiple of
 * @p ways (any of which would make the LUT's set-index arithmetic
 * undefined or silently lossy). @p context prefixes the error
 * message. Used by GpuConfig::validate and the MemoLut constructor.
 */
void validateMemoLutGeometry(u32 entries, u32 ways,
                             const char *context);

/**
 * Shared guard for cache geometry: fatal() when @p p has zero or
 * non-power-of-two lineBytes, zero ways, fewer bytes than one full
 * set, or a non-power-of-two set count (the line and set-index shift
 * and mask arithmetic would be undefined or silently alias). Used by
 * GpuConfig::validate and the CacheModel constructor.
 * @return the (validated, power-of-two) number of sets
 */
u64 validateCacheGeometry(const CacheParams &p);

/** The most pixels a screen may have: 2^26, about twice 8K UHD. */
constexpr u64 maxScreenPixels = u64{1} << 26;

/**
 * The screen and tile size rule, shared by GpuConfig::validate and the
 * trace reader's META check so that capture and replay accept the same
 * sizes: no size is zero, a tile is no wider or taller than the
 * screen, and the screen has at most maxScreenPixels pixels.
 * @return the diagnostic of the first broken part, empty when none is
 */
std::string screenSizeError(u32 screenWidth, u32 screenHeight,
                            u32 tileWidth, u32 tileHeight);

/**
 * Full simulation configuration. Defaults reproduce Table I.
 */
struct GpuConfig
{
    // --- Tech specs -----------------------------------------------------
    u64 frequencyHz = 400'000'000;  //!< 400 MHz

    // --- Screen ---------------------------------------------------------
    u32 screenWidth = 1196;
    u32 screenHeight = 768;
    u32 tileWidth = 16;
    u32 tileHeight = 16;

    // --- Main memory ----------------------------------------------------
    Cycles dramMinLatency = 50;
    Cycles dramMaxLatency = 100;
    u32 dramBytesPerCycle = 4;      //!< dual-channel LPDDR3
    /** Memory-controller request queue depth: bounds how far the DRAM
     *  backlog can grow before the producer throttles (contention
     *  model in timing/dram.hh). */
    u32 dramQueueEntries = 16;

    /** Texture misses the fragment processors keep in flight (MLP):
     *  only 1/N of a texel miss's latency is exposed as stall. */
    u32 texelMissesInFlight = 4;

    // --- Queues (entries) -------------------------------------------------
    u32 vertexQueueEntries = 16;    //!< x2, 136 B/entry
    u32 triangleQueueEntries = 16;  //!< 388 B/entry
    u32 tileQueueEntries = 16;      //!< 388 B/entry
    u32 fragmentQueueEntries = 64;  //!< 233 B/entry

    // --- Caches -----------------------------------------------------------
    CacheParams vertexCache{"vertexCache", 64, 2, 4 * KiB, 1};
    CacheParams textureCache{"textureCache", 64, 2, 8 * KiB, 1};
    u32 numTextureCaches = 4;
    CacheParams tileCache{"tileCache", 64, 8, 128 * KiB, 1};
    CacheParams l2Cache{"l2Cache", 64, 8, 256 * KiB, 2};
    CacheParams colorBuffer{"colorBuffer", 64, 1, 1 * KiB, 1};
    CacheParams depthBuffer{"depthBuffer", 64, 1, 1 * KiB, 1};

    // --- Non-programmable stage throughputs -------------------------------
    u32 trianglesPerCycle = 1;      //!< primitive assembly

    // --- Programmable stages ----------------------------------------------
    u32 numVertexProcessors = 1;
    u32 numFragmentProcessors = 4;

    // --- Technique under evaluation ---------------------------------------
    Technique technique = Technique::Baseline;

    // --- Rendering Elimination parameters ---------------------------------
    u32 otQueueEntries = 16;        //!< Overlapped Tiles Queue depth
    /** Periodically force-render every tile to refresh the Frame Buffer
     *  (0 disables the refresh). */
    u32 refreshPeriodFrames = 0;

    // --- Fragment Memoization parameters (paper §V-A) ---------------------
    u32 memoLutEntries = 2048;
    u32 memoLutWays = 4;

    // --- Derived helpers ---------------------------------------------------
    u32
    tilesX() const
    {
        return (screenWidth + tileWidth - 1) / tileWidth;
    }

    u32
    tilesY() const
    {
        return (screenHeight + tileHeight - 1) / tileHeight;
    }

    u32 numTiles() const { return tilesX() * tilesY(); }

    /** Tile id covering pixel (x, y). */
    TileId
    tileAt(u32 x, u32 y) const
    {
        return (y / tileHeight) * tilesX() + (x / tileWidth);
    }

    /** Signature Buffer footprint: 2 frames x numTiles x 4 B. */
    u64 signatureBufferBytes() const { return 2ull * numTiles() * 4; }

    /** Scale screen (and thus tile grid) keeping everything else. */
    void
    scaleResolution(u32 w, u32 h)
    {
        screenWidth = w;
        screenHeight = h;
    }

    /**
     * Fail fast (fatal) on configurations that would be undefined
     * behaviour downstream: zero tile/screen dimensions, memoization
     * LUT geometry with zero ways / fewer entries than ways / a
     * non-multiple entry count (MemoLut would compute `sig % 0`),
     * cache geometries with zero lineBytes / zero ways / a
     * non-power-of-two set count, a vertex or texture cache whose
     * lineBytes differs from the L2's, a zero-bandwidth DRAM
     * (dramBytesPerCycle == 0 divides by zero in the transfer-cycle
     * math), a zero-depth DRAM queue, or zero texel MLP.
     */
    void validate() const;

    /** Print a Table I-style summary. */
    void print(std::ostream &os) const;
};

} // namespace regpu

#endif // REGPU_COMMON_CONFIG_HH
