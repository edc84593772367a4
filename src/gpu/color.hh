/**
 * @file
 * Packed RGBA8 color type and blending, as produced by the Raster
 * Pipeline's Blend unit and stored in the Color Buffer / Frame Buffer.
 */

#ifndef REGPU_GPU_COLOR_HH
#define REGPU_GPU_COLOR_HH

#include <algorithm>
#include <array>
#include <type_traits>

#include "common/types.hh"
#include "common/vecmath.hh"

namespace regpu
{

/** n / 255.0f for every 8-bit channel value n, folded at compile time:
 *  the same correctly rounded floats the run-time division yields,
 *  without a divss per channel in the sampler's hot loop. */
inline constexpr std::array<float, 256> unorm8ToFloat = [] {
    std::array<float, 256> table{};
    for (u32 n = 0; n < 256; n++)
        table[n] = static_cast<float>(n) / 255.0f;
    return table;
}();

/** Packed 8-bit-per-channel RGBA color. */
struct Color
{
    u8 r = 0, g = 0, b = 0, a = 255;

    constexpr Color() = default;
    constexpr Color(u8 r_, u8 g_, u8 b_, u8 a_ = 255)
        : r(r_), g(g_), b(b_), a(a_) {}

    constexpr bool operator==(const Color &) const = default;

    /** Pack to a little-endian u32 (R in the low byte). */
    constexpr u32
    packed() const
    {
        return u32(r) | (u32(g) << 8) | (u32(b) << 16) | (u32(a) << 24);
    }

    /** Unpack from u32. */
    static constexpr Color
    fromPacked(u32 v)
    {
        return {u8(v), u8(v >> 8), u8(v >> 16), u8(v >> 24)};
    }

    /**
     * Convert float RGBA lanes in [0,1] to packed 8-bit: per channel,
     * clampf(f, 0, 1) * 255 + 0.5, truncated. The lanes run the scalar
     * clamp's two compares (so NaN passes through it, as in clampf),
     * then the same multiply and add; the truncating convert then
     * equals the scalar float-to-u8 cast on the clamped range.
     */
    static Color
    fromLanes(Lanes4 v)
    {
        const Lanes4 zero{};
        const Lanes4 one = zero + 1.0f;
        v = v < zero ? zero : (v > one ? one : v);
        const I32Lanes4 q = __builtin_convertvector(v * 255.0f + 0.5f,
                                                    I32Lanes4);
        return {static_cast<u8>(q[0]), static_cast<u8>(q[1]),
                static_cast<u8>(q[2]), static_cast<u8>(q[3])};
    }

    /** Convert a float RGBA vector in [0,1] to packed 8-bit. */
    static Color fromVec4(Vec4 v) { return fromLanes(regpu::toLanes(v)); }

    /** Convert back to float RGBA lanes in [0,1]. */
    Lanes4
    toLanes() const
    {
        return Lanes4{unorm8ToFloat[r], unorm8ToFloat[g], unorm8ToFloat[b],
                      unorm8ToFloat[a]};
    }

    /** Convert back to float RGBA in [0,1]. */
    Vec4
    toVec4() const
    {
        return {unorm8ToFloat[r], unorm8ToFloat[g], unorm8ToFloat[b],
                unorm8ToFloat[a]};
    }
};

// Four bytes, no padding: comparing colors with memcmp is comparing
// them with operator== (FrameBuffer's tile compares rely on it).
static_assert(sizeof(Color) == 4
              && std::has_unique_object_representations_v<Color>);

/** Blend modes supported by the Blend unit. */
enum class BlendMode
{
    Replace,    //!< dst = src
    AlphaBlend, //!< dst = src*a + dst*(1-a), standard transparency
    Additive,   //!< dst = min(src + dst, 255)
};

/** Apply the Blend unit function. */
inline Color
blend(BlendMode mode, Color src, Color dst)
{
    switch (mode) {
      case BlendMode::Replace:
        return src;
      case BlendMode::AlphaBlend: {
        // Integer blend with rounding, as fixed-function hardware does.
        u32 a = src.a;
        u32 ia = 255 - a;
        auto mix = [&](u32 s, u32 d) {
            return static_cast<u8>((s * a + d * ia + 127) / 255);
        };
        return {mix(src.r, dst.r), mix(src.g, dst.g), mix(src.b, dst.b),
                static_cast<u8>(std::max<u32>(src.a, dst.a))};
      }
      case BlendMode::Additive: {
        auto sat = [](u32 s, u32 d) {
            return static_cast<u8>(std::min<u32>(s + d, 255));
        };
        return {sat(src.r, dst.r), sat(src.g, dst.g), sat(src.b, dst.b),
                static_cast<u8>(std::max<u32>(src.a, dst.a))};
      }
    }
    return src;
}

} // namespace regpu

#endif // REGPU_GPU_COLOR_HH
