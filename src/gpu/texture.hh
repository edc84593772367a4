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
 * A 2D RGBA8 texture with power-of-two dimensions.
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

    /** Overwrite a texel (tests / dynamic-texture experiments). */
    void
    setTexel(u32 u, u32 v, Color c)
    {
        texels[(v & (height_ - 1)) * width_ + (u & (width_ - 1))] = c;
    }

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
 * Bilinear sampler. Also reports the texel addresses it touched so
 * the caller can drive the texture-cache model.
 */
class Sampler
{
  public:
    /**
     * Sample @p tex at normalized coordinates (s, t) with wrapping.
     * @param touched if non-null, overwritten with the texel addresses
     *                read
     * @return filtered color
     */
    static Color sample(const Texture &tex, float s, float t,
                        TexelFootprint *touched);
};

} // namespace regpu

#endif // REGPU_GPU_TEXTURE_HH
