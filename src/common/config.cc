#include "common/config.hh"

#include "common/logging.hh"

namespace regpu
{

const char *
techniqueName(Technique t)
{
    switch (t) {
      case Technique::Baseline:
        return "Baseline";
      case Technique::RenderingElimination:
        return "RE";
      case Technique::TransactionElimination:
        return "TE";
      case Technique::FragmentMemoization:
        return "Memo";
    }
    return "?";
}

void
validateMemoLutGeometry(u32 entries, u32 ways, const char *context)
{
    if (ways == 0)
        fatal(context, ": memo LUT ways must be >= 1 (got 0)");
    if (entries < ways)
        fatal(context, ": memo LUT entries (", entries,
              ") must be >= ways (", ways, ")");
    if (entries % ways != 0)
        fatal(context, ": memo LUT entries (", entries,
              ") must be a multiple of ways (", ways, ")");
}

u64
validateCacheGeometry(const CacheParams &p)
{
    if (p.lineBytes == 0)
        fatal("cache '", p.name, "': lineBytes must be >= 1 (got 0)");
    // The cache model indexes lines with shifts: any other line size
    // would alias lines silently.
    if ((p.lineBytes & (p.lineBytes - 1)) != 0)
        fatal("cache '", p.name, "': lineBytes must be a power of two "
              "(got ", p.lineBytes, ")");
    if (p.ways == 0)
        fatal("cache '", p.name, "': ways must be >= 1 (got 0)");
    const u64 setBytes = static_cast<u64>(p.lineBytes) * p.ways;
    const u64 numSets = p.sizeBytes / setBytes;
    if (numSets == 0)
        fatal("cache '", p.name, "': sizeBytes (", p.sizeBytes,
              ") smaller than one set (", setBytes, " B)");
    if ((numSets & (numSets - 1)) != 0)
        fatal("cache '", p.name, "': set count must be a power of two "
              "(got ", numSets, " sets from ", p.sizeBytes, " B / ",
              p.ways, " ways x ", p.lineBytes, " B lines)");
    return numSets;
}

std::string
screenSizeError(u32 screenWidth, u32 screenHeight, u32 tileWidth,
                u32 tileHeight)
{
    auto error = [&](const auto &...broken) {
        return log_detail::concat(broken..., ": screen ", screenWidth, "x",
                                  screenHeight, ", tiles ", tileWidth, "x",
                                  tileHeight);
    };
    if (screenWidth == 0 || screenHeight == 0 || tileWidth == 0
        || tileHeight == 0)
        return error("zero screen or tile size");
    if (tileWidth > screenWidth || tileHeight > screenHeight)
        return error("tile larger than the screen");
    if (static_cast<u64>(screenWidth) * screenHeight > maxScreenPixels)
        return error("screen of more than ", maxScreenPixels, " pixels");
    return {};
}

void
GpuConfig::validate() const
{
    const std::string sizes =
        screenSizeError(screenWidth, screenHeight, tileWidth, tileHeight);
    if (!sizes.empty())
        fatal("GpuConfig: ", sizes);
    validateMemoLutGeometry(memoLutEntries, memoLutWays, "GpuConfig");
    for (const CacheParams *p :
         {&vertexCache, &textureCache, &tileCache, &l2Cache,
          &colorBuffer, &depthBuffer})
        validateCacheGeometry(*p);
    // A miss or writeback reaches the L2 as one line access
    // (timing/cache.hh), which is exact only for equal line sizes.
    for (const CacheParams *p : {&vertexCache, &textureCache})
        if (p->lineBytes != l2Cache.lineBytes)
            fatal("cache '", p->name, "': lineBytes (", p->lineBytes,
                  ") must equal the L2's (", l2Cache.lineBytes, ")");
    if (numTextureCaches == 0)
        fatal("GpuConfig: numTextureCaches must be >= 1 (got 0)");
    // A tile record keeps each texel sample's texture cache in a byte.
    if (numTextureCaches > 256)
        fatal("GpuConfig: numTextureCaches must be <= 256 (got ",
              numTextureCaches, ")");
    if (dramBytesPerCycle == 0)
        fatal("GpuConfig: dramBytesPerCycle must be >= 1 (got 0)");
    if (dramQueueEntries == 0)
        fatal("GpuConfig: dramQueueEntries must be >= 1 (got 0)");
    if (texelMissesInFlight == 0)
        fatal("GpuConfig: texelMissesInFlight must be >= 1 (got 0)");
}

void
GpuConfig::print(std::ostream &os) const
{
    os << "GPU configuration (Table I)\n"
       << "  clock           : " << frequencyHz / 1e6
       << " MHz, 1 V, 32 nm\n"
       << "  screen          : " << screenWidth << "x" << screenHeight
       << " (" << tilesX() << "x" << tilesY() << " tiles of "
       << tileWidth << "x" << tileHeight << ")\n"
       << "  dram            : " << dramMinLatency << "-" << dramMaxLatency
       << " cycles, " << dramBytesPerCycle << " B/cycle, "
       << dramQueueEntries << "-entry queue\n"
       << "  texel MLP       : " << texelMissesInFlight
       << " misses in flight\n"
       << "  vertex cache    : " << vertexCache.sizeBytes / KiB << " KB\n"
       << "  texture caches  : " << numTextureCaches << " x "
       << textureCache.sizeBytes / KiB << " KB\n"
       << "  tile cache      : " << tileCache.sizeBytes / KiB << " KB\n"
       << "  L2 cache        : " << l2Cache.sizeBytes / KiB << " KB\n"
       << "  processors      : " << numVertexProcessors << " vertex, "
       << numFragmentProcessors << " fragment\n"
       << "  technique       : " << techniqueName(technique) << "\n"
       << "  signature buffer: " << signatureBufferBytes() / 1024.0
       << " KB\n";
}

} // namespace regpu
