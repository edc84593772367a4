/**
 * @file
 * GpuConfig (Table I) derived-value tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"

using namespace regpu;

TEST(GpuConfig, TableOneDefaults)
{
    GpuConfig c;
    EXPECT_EQ(c.frequencyHz, 400'000'000u);
    EXPECT_EQ(c.screenWidth, 1196u);
    EXPECT_EQ(c.screenHeight, 768u);
    EXPECT_EQ(c.tileWidth, 16u);
    EXPECT_EQ(c.tileHeight, 16u);
    EXPECT_EQ(c.numVertexProcessors, 1u);
    EXPECT_EQ(c.numFragmentProcessors, 4u);
    EXPECT_EQ(c.l2Cache.sizeBytes, 256 * KiB);
    EXPECT_EQ(c.tileCache.sizeBytes, 128 * KiB);
    EXPECT_EQ(c.dramBytesPerCycle, 4u);
}

TEST(GpuConfig, TileGridCoversScreen)
{
    GpuConfig c;
    // 1196/16 = 74.75 -> 75 tiles; 768/16 = 48.
    EXPECT_EQ(c.tilesX(), 75u);
    EXPECT_EQ(c.tilesY(), 48u);
    EXPECT_EQ(c.numTiles(), 3600u);
}

TEST(GpuConfig, TileAtMapsPixelsToTiles)
{
    GpuConfig c;
    EXPECT_EQ(c.tileAt(0, 0), 0u);
    EXPECT_EQ(c.tileAt(15, 15), 0u);
    EXPECT_EQ(c.tileAt(16, 0), 1u);
    EXPECT_EQ(c.tileAt(0, 16), c.tilesX());
    EXPECT_EQ(c.tileAt(1195, 767), c.numTiles() - 1);
}

TEST(GpuConfig, SignatureBufferSizeMatchesPaper)
{
    GpuConfig c;
    // 2 frames x 3600 tiles x 4 B = 28.8 KB: small enough for on-chip
    // SRAM, the feasibility argument of Section III.
    EXPECT_EQ(c.signatureBufferBytes(), 2u * 3600 * 4);
    EXPECT_LT(c.signatureBufferBytes(), 32 * KiB);
}

TEST(GpuConfig, ScaleResolutionChangesGrid)
{
    GpuConfig c;
    c.scaleResolution(400, 256);
    EXPECT_EQ(c.tilesX(), 25u);
    EXPECT_EQ(c.tilesY(), 16u);
}

TEST(GpuConfig, PrintMentionsKeyParameters)
{
    GpuConfig c;
    std::ostringstream os;
    c.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("400 MHz"), std::string::npos);
    EXPECT_NE(text.find("1196x768"), std::string::npos);
}

TEST(GpuConfig, TechniqueNames)
{
    EXPECT_STREQ(techniqueName(Technique::Baseline), "Baseline");
    EXPECT_STREQ(techniqueName(Technique::RenderingElimination), "RE");
    EXPECT_STREQ(techniqueName(Technique::TransactionElimination), "TE");
    EXPECT_STREQ(techniqueName(Technique::FragmentMemoization), "Memo");
}

TEST(GpuConfig, EdgeTileFootprint)
{
    GpuConfig c; // 1196 = 74*16 + 12: last tile column is 12 px wide
    EXPECT_EQ(c.tilesX() * c.tileWidth, 1200u);
    EXPECT_GT(c.tilesX() * c.tileWidth, c.screenWidth);
}

// ---------------------------------------------------------------------------
// validate(): cache/DRAM knob guards (death tests, PR 2 precedent)
// ---------------------------------------------------------------------------

TEST(GpuConfigDeathTest, NonPowerOfTwoSetCountIsFatal)
{
    GpuConfig bad;
    // 3 sets: 384 B / (2 ways x 64 B lines).
    bad.vertexCache.sizeBytes = 384;
    bad.vertexCache.ways = 2;
    bad.vertexCache.lineBytes = 64;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "set count must be a power of two");
}

TEST(GpuConfigDeathTest, ZeroLineBytesIsFatal)
{
    GpuConfig bad;
    bad.l2Cache.lineBytes = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "lineBytes must be >= 1");
}

TEST(GpuConfigDeathTest, ZeroWaysIsFatal)
{
    GpuConfig bad;
    bad.textureCache.ways = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "ways must be >= 1");
}

TEST(GpuConfigDeathTest, CacheSmallerThanOneSetIsFatal)
{
    GpuConfig bad;
    bad.tileCache.sizeBytes = 64; // one 8-way set needs 512 B
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "smaller than one set");
}

TEST(GpuConfigDeathTest, ZeroDramBytesPerCycleIsFatal)
{
    GpuConfig bad;
    bad.dramBytesPerCycle = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "dramBytesPerCycle must be >= 1");
}

TEST(GpuConfigDeathTest, ZeroDramQueueEntriesIsFatal)
{
    GpuConfig bad;
    bad.dramQueueEntries = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "dramQueueEntries must be >= 1");
}

TEST(GpuConfigDeathTest, ZeroTexelMlpIsFatal)
{
    GpuConfig bad;
    bad.texelMissesInFlight = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "texelMissesInFlight must be >= 1");
}

TEST(GpuConfigDeathTest, CacheModelConstructorGuardsGeometryToo)
{
    CacheParams bad;
    bad.name = "direct";
    bad.sizeBytes = 384; // 3 sets
    EXPECT_EXIT((void)validateCacheGeometry(bad),
                ::testing::ExitedWithCode(1),
                "set count must be a power of two");
}

TEST(GpuConfigDeathTest, NonPowerOfTwoLineBytesIsFatal)
{
    // 48 B lines in 64 sets: the set count alone passes, but the
    // cache model's shift indexing would alias lines.
    GpuConfig bad;
    bad.textureCache.lineBytes = 48;
    bad.textureCache.sizeBytes = 48 * bad.textureCache.ways * 64;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "lineBytes must be a power of two");
}

TEST(GpuConfigDeathTest, LinkedCacheLineSizeMustMatchL2)
{
    // 128 B lines in a valid geometry: each texture-cache miss would
    // be forwarded as one 64 B L2 access, dropping half its bytes.
    GpuConfig bad;
    bad.textureCache.lineBytes = 128;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "cache 'textureCache': lineBytes \\(128\\) must equal "
                "the L2's \\(64\\)");
    GpuConfig vertex;
    vertex.vertexCache.lineBytes = 32;
    EXPECT_EXIT(vertex.validate(), ::testing::ExitedWithCode(1),
                "cache 'vertexCache': lineBytes \\(32\\) must equal");
}

TEST(GpuConfig, ScreenSizeRuleBounds)
{
    // A tile as large as the screen passes, one pixel more does not.
    EXPECT_EQ(screenSizeError(16, 16, 16, 16), "");
    EXPECT_EQ(screenSizeError(15, 16, 16, 16),
              "tile larger than the screen: screen 15x16, tiles 16x16");
    EXPECT_EQ(screenSizeError(16, 15, 16, 16),
              "tile larger than the screen: screen 16x15, tiles 16x16");
    // 8K UHD and exactly 2^26 pixels pass, one row more does not.
    EXPECT_EQ(screenSizeError(7680, 4320, 16, 16), "");
    EXPECT_EQ(screenSizeError(8192, 8192, 16, 16), "");
    EXPECT_EQ(screenSizeError(8192, 8193, 16, 16),
              "screen of more than 67108864 pixels: screen 8192x8193, "
              "tiles 16x16");
    EXPECT_EQ(screenSizeError(0, 48, 16, 16),
              "zero screen or tile size: screen 0x48, tiles 16x16");
    // u32 sizes whose product overflows 32 bits.
    EXPECT_NE(screenSizeError(0xFFFFFFFFu, 0xFFFFFFFFu, 16, 16), "");
}

TEST(GpuConfig, DefaultConfigValidates)
{
    GpuConfig c;
    c.validate(); // must not exit
    EXPECT_EQ(c.texelMissesInFlight, 4u);
    EXPECT_EQ(c.dramQueueEntries, 16u);
}

TEST(GpuConfigDeathTest, ZeroTextureCachesIsFatal)
{
    GpuConfig bad;
    bad.numTextureCaches = 0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "numTextureCaches must be >= 1");
}

TEST(GpuConfigDeathTest, MoreThan256TextureCachesIsFatal)
{
    // A tile record keeps each texel sample's cache in a byte.
    GpuConfig ok;
    ok.numTextureCaches = 256;
    ok.validate(); // must not exit
    GpuConfig bad;
    bad.numTextureCaches = 257;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "numTextureCaches must be <= 256 \\(got 257\\)");
}
