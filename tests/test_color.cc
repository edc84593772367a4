/**
 * @file
 * Color packing and Blend-unit tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "gpu/color.hh"

using namespace regpu;

TEST(Color, PackUnpackRoundTrip)
{
    Color c(10, 20, 30, 40);
    EXPECT_EQ(Color::fromPacked(c.packed()), c);
}

TEST(Color, DefaultIsOpaqueBlack)
{
    Color c;
    EXPECT_EQ(c, Color(0, 0, 0, 255));
}

TEST(Color, FromVec4ClampsAndRounds)
{
    EXPECT_EQ(Color::fromVec4({2.0f, -1.0f, 0.5f, 1.0f}),
              Color(255, 0, 128, 255));
}

TEST(Color, FromVec4LanesMatchScalarClampAndRound)
{
    // The lane pack against the scalar clamp, scale, round and cast,
    // around every rounding boundary (k + 0.5) / 255 and the clamp's
    // edges.
    auto scalar = [](float f) {
        return static_cast<u8>(clampf(f, 0.0f, 1.0f) * 255.0f + 0.5f);
    };
    std::vector<float> values = {-0.0f, 0.0f, 1e-40f, -1e-40f, 1.0f,
                                 -1.0f, 2.0f, 1e30f, -1e30f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity()};
    for (int k = -1; k <= 256; k++) {
        for (float f : {k / 255.0f, (k + 0.5f) / 255.0f}) {
            values.push_back(f);
            values.push_back(std::nextafter(f, -2.0f));
            values.push_back(std::nextafter(f, 2.0f));
        }
    }
    for (std::size_t i = 0; i + 3 < values.size(); i++) {
        const Vec4 v{values[i], values[i + 1], values[i + 2],
                     values[i + 3]};
        const Color want(scalar(v.x), scalar(v.y), scalar(v.z),
                         scalar(v.w));
        EXPECT_EQ(Color::fromVec4(v).packed(), want.packed())
            << v.x << " " << v.y << " " << v.z << " " << v.w;
    }
}

TEST(Color, ToVec4RoundTripWithinQuantum)
{
    Color c(100, 150, 200, 250);
    Color back = Color::fromVec4(c.toVec4());
    EXPECT_EQ(back, c);
}

TEST(Color, Unorm8TableMatchesDivision)
{
    // The volatile divisor keeps the division at run time: the table
    // must hold exactly the floats the divss it replaces produced.
    volatile float d = 255.0f;
    for (u32 n = 0; n < 256; n++) {
        const float want = static_cast<float>(n) / d;
        EXPECT_EQ(std::bit_cast<u32>(unorm8ToFloat[n]),
                  std::bit_cast<u32>(want))
            << n;
        const u8 c = static_cast<u8>(n);
        const Vec4 v = Color(c, c, c, c).toVec4();
        EXPECT_EQ(std::bit_cast<u32>(v.x), std::bit_cast<u32>(want)) << n;
        EXPECT_EQ(std::bit_cast<u32>(v.w), std::bit_cast<u32>(want)) << n;
        // So does the sampler's division-free lane conversion.
        volatile i32 lane = static_cast<i32>(n);
        const Lanes4 l = unorm8Lanes(I32Lanes4{} + lane);
        EXPECT_EQ(std::bit_cast<u32>(l[3]), std::bit_cast<u32>(want)) << n;
    }
}

TEST(Blend, ReplaceIgnoresDestination)
{
    Color src(1, 2, 3, 4), dst(9, 9, 9, 9);
    EXPECT_EQ(blend(BlendMode::Replace, src, dst), src);
}

TEST(Blend, AlphaBlendOpaqueSourceWins)
{
    Color src(200, 100, 50, 255), dst(0, 0, 0, 255);
    EXPECT_EQ(blend(BlendMode::AlphaBlend, src, dst), src);
}

TEST(Blend, AlphaBlendTransparentSourceKeepsDestinationRgb)
{
    Color src(200, 100, 50, 0), dst(10, 20, 30, 255);
    Color out = blend(BlendMode::AlphaBlend, src, dst);
    EXPECT_EQ(out.r, 10);
    EXPECT_EQ(out.g, 20);
    EXPECT_EQ(out.b, 30);
}

TEST(Blend, AlphaBlendHalfMixes)
{
    Color src(255, 0, 0, 128), dst(0, 0, 255, 255);
    Color out = blend(BlendMode::AlphaBlend, src, dst);
    EXPECT_NEAR(out.r, 128, 1);
    EXPECT_NEAR(out.b, 127, 1);
}

TEST(Blend, AdditiveSaturates)
{
    Color src(200, 200, 10, 255), dst(100, 10, 10, 255);
    Color out = blend(BlendMode::Additive, src, dst);
    EXPECT_EQ(out.r, 255);
    EXPECT_EQ(out.g, 210);
    EXPECT_EQ(out.b, 20);
}

TEST(Blend, AlphaBlendIsDeterministicInteger)
{
    // Fixed-function integer blend: same inputs, same outputs, no
    // float wobble - a prerequisite for tile-color reproducibility.
    Color src(123, 45, 67, 89), dst(210, 98, 76, 255);
    Color a = blend(BlendMode::AlphaBlend, src, dst);
    Color b = blend(BlendMode::AlphaBlend, src, dst);
    EXPECT_EQ(a, b);
}
