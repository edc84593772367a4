/**
 * @file
 * Procedural-texture and sampler tests.
 */

#include <gtest/gtest.h>

#include "gpu/texture.hh"

using namespace regpu;

TEST(Texture, DeterministicContent)
{
    Texture a(0, 64, 64, TexturePattern::Noise, 7);
    Texture b(0, 64, 64, TexturePattern::Noise, 7);
    for (u32 v = 0; v < 64; v += 5)
        for (u32 u = 0; u < 64; u += 5)
            EXPECT_EQ(a.texel(u, v), b.texel(u, v));
}

TEST(Texture, DifferentSeedsDiffer)
{
    Texture a(0, 64, 64, TexturePattern::Noise, 7);
    Texture b(0, 64, 64, TexturePattern::Noise, 8);
    int diff = 0;
    for (u32 v = 0; v < 64; v += 4)
        for (u32 u = 0; u < 64; u += 4)
            if (!(a.texel(u, v) == b.texel(u, v)))
                diff++;
    EXPECT_GT(diff, 10);
}

TEST(Texture, SolidIsUniform)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 3);
    Color c0 = t.texel(0, 0);
    for (u32 v = 0; v < 32; v++)
        for (u32 u = 0; u < 32; u++)
            EXPECT_EQ(t.texel(u, v), c0);
}

TEST(Texture, CheckerAlternates)
{
    Texture t(0, 64, 64, TexturePattern::Checker, 5);
    EXPECT_NE(t.texel(0, 0), t.texel(16, 0));
    EXPECT_EQ(t.texel(0, 0), t.texel(32, 0));
}

TEST(Texture, WrapsCoordinates)
{
    Texture t(0, 32, 32, TexturePattern::Gradient, 9);
    EXPECT_EQ(t.texel(32, 0), t.texel(0, 0));
    EXPECT_EQ(t.texel(-1, 0), t.texel(31, 0));
    EXPECT_EQ(t.texel(0, 33), t.texel(0, 1));
}

TEST(Texture, AddressMapIsPerTexture)
{
    Texture a(1, 32, 32, TexturePattern::Solid, 1);
    Texture b(2, 32, 32, TexturePattern::Solid, 1);
    EXPECT_NE(a.baseAddr(), b.baseAddr());
    EXPECT_EQ(a.texelAddr(0, 0), a.baseAddr());
    EXPECT_EQ(a.texelAddr(1, 0), a.baseAddr() + 4);
    EXPECT_EQ(a.texelAddr(0, 1), a.baseAddr() + 32 * 4);
}

TEST(Texture, SetTexelOverwrites)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 1);
    Color red(255, 0, 0);
    t.setTexel(3, 4, red);
    EXPECT_EQ(t.texel(3, 4), red);
}

TEST(Sampler, BilinearTouchesFourTexels)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    TexelFootprint touched;
    Sampler::sample(t, 0.37f, 0.61f, &touched);
    ASSERT_EQ(touched.count, 4u);
    // The 2x2 quad around (0.37*32 - 0.5, 0.61*32 - 0.5) = (11.34,
    // 19.02), row by row.
    EXPECT_EQ(touched.addrs()[0], t.texelAddr(11, 19));
    EXPECT_EQ(touched.addrs()[1], t.texelAddr(12, 19));
    EXPECT_EQ(touched.addrs()[2], t.texelAddr(11, 20));
    EXPECT_EQ(touched.addrs()[3], t.texelAddr(12, 20));
}

TEST(Sampler, BilinearOnSolidIsExact)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    Color c = Sampler::sample(t, 0.123f, 0.456f, nullptr);
    EXPECT_EQ(c, t.texel(0, 0));
}

TEST(Sampler, BilinearInterpolatesBetweenTexels)
{
    Texture t(0, 32, 32, TexturePattern::Solid, 5);
    t.setTexel(0, 0, Color(0, 0, 0, 255));
    t.setTexel(1, 0, Color(255, 255, 255, 255));
    // Halfway between texel 0 and 1 centres on row 0.
    Color c = Sampler::sample(t, 1.0f / 32, 0.5f / 32, nullptr);
    EXPECT_NEAR(c.r, 128, 2);
}

TEST(Texture, SizeBytes)
{
    Texture t(0, 128, 64, TexturePattern::Solid, 1);
    EXPECT_EQ(t.sizeBytes(), 128u * 64 * 4);
}
