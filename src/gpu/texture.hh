/**
 * @file
 * Procedural textures and the texture sampler.
 *
 * Real traces ship compressed texture assets; we substitute
 * deterministic procedural images (checkerboards, noise, gradients,
 * sprite atlases, plain fills). What matters for the experiments is
 * (a) texel values feeding the fragment shader and (b) the texel
 * address stream feeding the texture caches; both are preserved.
 */

#ifndef REGPU_GPU_TEXTURE_HH
#define REGPU_GPU_TEXTURE_HH

#include <array>
#include <bit>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "gpu/color.hh"

namespace regpu
{

/** Procedural content classes for texture synthesis. */
enum class TexturePattern
{
    Solid,      //!< single plain color (background skies, fills)
    Checker,    //!< two-color checkerboard
    Gradient,   //!< smooth two-color gradient
    Noise,      //!< value-noise blotches (grass, rock)
    Atlas,      //!< grid of distinct colored "sprites" with borders
};

/**
 * A 2D RGBA8 texture with power-of-two dimensions. Immutable once
 * built: the pipeline's per-tile records of past renders rely on
 * texels never changing.
 */
class Texture
{
  public:
    /**
     * Synthesise a texture.
     * @param id stable identifier (drives the address map and hashing)
     * @param w,h dimensions (powers of two)
     * @param pattern content class
     * @param seed content seed
     */
    Texture(u32 id, u32 w, u32 h, TexturePattern pattern, u64 seed);

    /**
     * Wrap existing texel data (trace replay, imported assets).
     * @param texels row-major RGBA data, exactly w*h texels (asserted)
     */
    Texture(u32 id, u32 w, u32 h, std::vector<Color> texels);

    u32 id() const { return id_; }
    u32 width() const { return width_; }
    u32 height() const { return height_; }

    /** Raw texel (u, v wrapped). */
    Color
    texel(i32 u, i32 v) const
    {
        u32 uu = static_cast<u32>(u) & (width_ - 1);
        u32 vv = static_cast<u32>(v) & (height_ - 1);
        return texels[vv * width_ + uu];
    }

    /** Simulated main-memory address of texel (u, v). */
    Addr
    texelAddr(i32 u, i32 v) const
    {
        u32 uu = static_cast<u32>(u) & (width_ - 1);
        u32 vv = static_cast<u32>(v) & (height_ - 1);
        return baseAddr() + (static_cast<Addr>(vv) * width_ + uu) * 4;
    }

    /** Simulated main-memory address of the texel at row-major
     *  @p index (the sampler's wrapped v * width + u). */
    Addr
    indexAddr(u32 index) const
    {
        return baseAddr() + static_cast<Addr>(index) * 4;
    }

    /** Base of this texture's simulated address range. */
    Addr
    baseAddr() const
    {
        return 0x3'0000'0000ull + (static_cast<Addr>(id_) << 24);
    }

    /** Footprint in bytes. */
    u64 sizeBytes() const { return u64(width_) * height_ * 4; }

    /** Raw row-major texel storage (trace capture serialises this). */
    const std::vector<Color> &texelData() const { return texels; }

  private:
    u32 id_;
    u32 width_;
    u32 height_;
    std::vector<Color> texels;
};

/** The texel addresses one bilinear sample read, in fetch order
 *  (none when no texture is bound). */
struct TexelFootprint
{
    std::array<Addr, 4> addr{};
    u32 count = 0;

    std::span<const Addr> addrs() const { return {addr.data(), count}; }
};

/**
 * Bilinear sampler, four samples at a time: one per lane. Also reports
 * the texels each sample read, so the caller can drive the
 * texture-cache model.
 *
 * Defined in the header: the raster loop calls it once per four
 * pixels. Each lane's float work is bit-identical to the scalar
 * reference of std::floor texel coordinates and Vec4 lerps
 * (tests/reference_raster.hh keeps that reference): the floor is
 * truncate-and-adjust, texels convert to the floats unorm8ToFloat
 * holds (unorm8Lanes), and each channel's lerps do the scalar
 * component's operations in order.
 */
class Sampler
{
  public:
    /** Filtered channels r, g, b, a, one sample per lane, each lane in
     *  [0, 255]. */
    using Channels = std::array<I32Lanes4, 4>;

    /**
     * Sample @p tex at normalized coordinates (s, t), lane by lane,
     * with wrapping. Texel coordinates are clamped to [-2^30, 2^30]
     * and a NaN one reads as 0 first, so any lane, a masked-off one
     * included, converts in range and reads texels in bounds.
     * @param texels overwritten with each lane's texel indices (see
     *               Texture::indexAddr) in fetch order: (u0, v0),
     *               (u0 + 1, v0), (u0, v0 + 1), (u0 + 1, v0 + 1)
     */
    static Channels
    sampleLanes(const Texture &tex, Lanes4 s, Lanes4 t,
                U32Lanes4 (&texels)[4])
    {
        const Lanes4 u =
            clampTexelCoord(s * static_cast<float>(tex.width()) - 0.5f);
        const Lanes4 v =
            clampTexelCoord(t * static_cast<float>(tex.height()) - 0.5f);
        const I32Lanes4 u0 = floorLanes(u);
        const I32Lanes4 v0 = floorLanes(v);
        const Lanes4 fu = u - __builtin_convertvector(u0, Lanes4);
        const Lanes4 fv = v - __builtin_convertvector(v0, Lanes4);

        // Texture::texel's wrap in u32 arithmetic, with a shift for the
        // multiply by the power-of-two width.
        const U32Lanes4 x = std::bit_cast<U32Lanes4>(u0);
        const U32Lanes4 y = std::bit_cast<U32Lanes4>(v0);
        const u32 uMask = tex.width() - 1;
        const u32 vMask = tex.height() - 1;
        const u32 widthShift = static_cast<u32>(__builtin_ctz(tex.width()));
        const U32Lanes4 x0 = x & uMask;
        const U32Lanes4 x1 = (x + 1) & uMask;
        const U32Lanes4 row0 = (y & vMask) << widthShift;
        const U32Lanes4 row1 = ((y + 1) & vMask) << widthShift;
        texels[0] = row0 + x0;
        texels[1] = row0 + x1;
        texels[2] = row1 + x0;
        texels[3] = row1 + x1;

        const Color *data = tex.texelData().data();
        I32Lanes4 packed[4] = {};
        for (int k = 0; k < 4; k++) {
            const U32Lanes4 &i = texels[k];
            packed[k] = I32Lanes4{static_cast<i32>(data[i[0]].packed()),
                                  static_cast<i32>(data[i[1]].packed()),
                                  static_cast<i32>(data[i[2]].packed()),
                                  static_cast<i32>(data[i[3]].packed())};
        }
        Channels out{};
        for (int ch = 0; ch < 4; ch++) {
            auto channel = [&](int k) {
                return unorm8Lanes((packed[k] >> (8 * ch)) & 255);
            };
            const Lanes4 a = lerp(channel(0), channel(1), fu);
            const Lanes4 b = lerp(channel(2), channel(3), fu);
            out[ch] = quantizeUnorm8(lerp(a, b, fv));
        }
        return out;
    }

    /**
     * One sample: sampleLanes with (s, t) in every lane.
     * @param touched if non-null, overwritten with the texel addresses
     *                read
     * @return filtered color
     */
    static Color
    sample(const Texture &tex, float s, float t, TexelFootprint *touched)
    {
        U32Lanes4 texels[4] = {};
        const Channels c =
            sampleLanes(tex, Lanes4{s, s, s, s}, Lanes4{t, t, t, t}, texels);
        if (touched)
            *touched = {{tex.indexAddr(texels[0][0]),
                         tex.indexAddr(texels[1][0]),
                         tex.indexAddr(texels[2][0]),
                         tex.indexAddr(texels[3][0])},
                        4};
        return {static_cast<u8>(c[0][0]), static_cast<u8>(c[1][0]),
                static_cast<u8>(c[2][0]), static_cast<u8>(c[3][0])};
    }

  private:
    /** The bound sampleLanes clamps texel coordinates to: 2^30, so
     *  u0 + 1 and v0 + 1 stay in the i32 range. */
    static constexpr float texelCoordLimit = 1073741824.0f;

    /** NaN to 0, then clamp to [-texelCoordLimit, texelCoordLimit]:
     *  in-range coordinates pass unchanged. */
    static Lanes4
    clampTexelCoord(Lanes4 f)
    {
        const Lanes4 zero{};
        const Lanes4 hi = zero + texelCoordLimit;
        const Lanes4 lo = zero - texelCoordLimit;
        f = f == f ? f : zero;
        return f < lo ? lo : (f > hi ? hi : f);
    }

    /** std::floor to i32 without the libm call: the convert truncates,
     *  which rounds a negative non-integer up, so step those down by
     *  one (a true compare adds -1). Exact wherever the convert is
     *  defined. */
    static I32Lanes4
    floorLanes(Lanes4 f)
    {
        const I32Lanes4 i = __builtin_convertvector(f, I32Lanes4);
        return i + (__builtin_convertvector(i, Lanes4) > f);
    }
};

} // namespace regpu

#endif // REGPU_GPU_TEXTURE_HH
