/**
 * @file
 * Procedural-texture and sampler tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gpu/texture.hh"
#include "reference_raster.hh"

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
    // Black, with texel 1 of row 0 white.
    std::vector<Color> texels(32 * 32, Color(0, 0, 0, 255));
    texels[1] = Color(255, 255, 255, 255);
    const Texture t(0, 32, 32, std::move(texels));
    // Halfway between texel 0 and 1 centres on row 0.
    Color c = Sampler::sample(t, 1.0f / 32, 0.5f / 32, nullptr);
    EXPECT_NEAR(c.r, 128, 2);
}

TEST(Sampler, MatchesStdFloorReference)
{
    // The inline sampler's truncate-and-adjust floor and lane lerps
    // against std::floor and scalar Vec4 lerps: colors and addresses.
    const Texture tex(0, 32, 16, TexturePattern::Noise, 11);
    std::vector<std::pair<float, float>> coords;
    Rng rng(42);
    for (int i = 0; i < 20000; i++)
        coords.emplace_back(rng.nextFloatRange(-8, 8),
                            rng.nextFloatRange(-8, 8));
    // Texel centres (u = s * 32 - 0.5 an integer) and edges (u + 0.5
    // an integer), with their neighbouring floats, on both sides of 0.
    for (int k = -80; k <= 80; k++) {
        for (float s : {(k + 0.5f) / 32, k / 32.0f}) {
            const float t = s / 2;
            coords.emplace_back(s, t);
            coords.emplace_back(std::nextafter(s, -1e9f),
                                std::nextafter(t, 1e9f));
            coords.emplace_back(std::nextafter(s, 1e9f),
                                std::nextafter(t, -1e9f));
        }
    }
    coords.emplace_back(0.0f, -0.0f);
    coords.emplace_back(-0.0f, 0.0f);
    coords.emplace_back(-0.0f, -0.0f);
    // Near +-2^23 texels, where a float's spacing reaches one texel.
    for (float texels : {8388608.0f, 8388607.0f, 4194303.5f}) {
        for (float sign : {1.0f, -1.0f}) {
            const float s = sign * texels / 32;
            const float t = sign * texels / 16;
            coords.emplace_back(s, t);
            coords.emplace_back(std::nextafter(s, 0.0f),
                                std::nextafter(t, 0.0f));
            coords.emplace_back(std::nextafter(s, sign * 1e9f),
                                std::nextafter(t, sign * 1e9f));
        }
    }
    for (const auto &[s, t] : coords) {
        TexelFootprint fast, ref;
        const Color got = Sampler::sample(tex, s, t, &fast);
        const Color want = testutil::referenceSample(tex, s, t, &ref);
        ASSERT_EQ(got.packed(), want.packed()) << "s=" << s << " t=" << t;
        ASSERT_EQ(fast.count, ref.count);
        ASSERT_EQ(fast.addr, ref.addr) << "s=" << s << " t=" << t;
    }
}

TEST(Sampler, NonFiniteAndHugeCoordinatesClamp)
{
    // NaN reads as texel coordinate 0, and +-inf and +-6e10 clamp to
    // +-2^30, a multiple of every texture size: each lands exactly on
    // texel (0, 0) in that axis, with no conversion out of the i32
    // range. Paired with ordinary coordinates, the other axis samples
    // as usual. Colors and addresses match the reference.
    const Texture tex(0, 32, 16, TexturePattern::Noise, 11);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> odd = {nan, -nan, inf, -inf, 6e10f, -6e10f};
    std::vector<float> all = odd;
    all.insert(all.end(), {0.37f, -2.61f, 0.5f / 32});
    for (float s : all) {
        for (float t : all) {
            TexelFootprint fast, ref;
            const Color got = Sampler::sample(tex, s, t, &fast);
            const Color want = testutil::referenceSample(tex, s, t, &ref);
            ASSERT_EQ(got.packed(), want.packed()) << "s=" << s << " t=" << t;
            ASSERT_EQ(fast.addr, ref.addr) << "s=" << s << " t=" << t;
        }
    }
    for (float s : odd) {
        for (float t : odd) {
            TexelFootprint touched;
            EXPECT_EQ(Sampler::sample(tex, s, t, &touched), tex.texel(0, 0))
                << "s=" << s << " t=" << t;
            EXPECT_EQ(touched.addr[0], tex.texelAddr(0, 0));
        }
    }
}

TEST(Texture, SizeBytes)
{
    Texture t(0, 128, 64, TexturePattern::Solid, 1);
    EXPECT_EQ(t.sizeBytes(), 128u * 64 * 4);
}
