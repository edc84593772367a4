#include "gpu/texture.hh"

#include "common/logging.hh"

namespace regpu
{

namespace
{

/** Smooth value noise on an 8x8 lattice. */
float
valueNoise(Rng &rng, std::vector<float> &lattice, u32 lattN,
           float fx, float fy)
{
    if (lattice.empty()) {
        lattice.resize(lattN * lattN);
        for (auto &v : lattice)
            v = rng.nextFloat();
    }
    auto latt = [&](u32 ix, u32 iy) {
        return lattice[(iy % lattN) * lattN + (ix % lattN)];
    };
    float gx = fx * lattN, gy = fy * lattN;
    u32 ix = static_cast<u32>(gx), iy = static_cast<u32>(gy);
    float tx = gx - ix, ty = gy - iy;
    // Smoothstep interpolation between lattice corners.
    tx = tx * tx * (3 - 2 * tx);
    ty = ty * ty * (3 - 2 * ty);
    float a = lerp(latt(ix, iy), latt(ix + 1, iy), tx);
    float b = lerp(latt(ix, iy + 1), latt(ix + 1, iy + 1), tx);
    return lerp(a, b, ty);
}

} // namespace

Texture::Texture(u32 id, u32 w, u32 h, std::vector<Color> texels_)
    : id_(id), width_(w), height_(h), texels(std::move(texels_))
{
    // w == 0 would pass the power-of-two check (0 & ~0 == 0) and turn
    // the texel() wrap mask into 0xFFFFFFFF - reject it explicitly.
    REGPU_ASSERT(w > 0 && h > 0 && (w & (w - 1)) == 0
                     && (h & (h - 1)) == 0,
                 "texture dimensions must be non-zero powers of two");
    REGPU_ASSERT(texels.size() == static_cast<std::size_t>(w) * h,
                 "texel data size must match dimensions");
}

Texture::Texture(u32 id, u32 w, u32 h, TexturePattern pattern, u64 seed)
    : id_(id), width_(w), height_(h)
{
    REGPU_ASSERT(w > 0 && h > 0 && (w & (w - 1)) == 0
                     && (h & (h - 1)) == 0,
                 "texture dimensions must be non-zero powers of two");
    texels.resize(static_cast<std::size_t>(w) * h);

    Rng rng(seed ^ (static_cast<u64>(id) << 32));
    Color c0(static_cast<u8>(rng.nextBounded(256)),
             static_cast<u8>(rng.nextBounded(256)),
             static_cast<u8>(rng.nextBounded(256)));
    Color c1(static_cast<u8>(rng.nextBounded(256)),
             static_cast<u8>(rng.nextBounded(256)),
             static_cast<u8>(rng.nextBounded(256)));

    std::vector<float> lattice;
    const u32 lattN = 8;

    for (u32 y = 0; y < h; y++) {
        for (u32 x = 0; x < w; x++) {
            Color out;
            switch (pattern) {
              case TexturePattern::Solid:
                out = c0;
                break;
              case TexturePattern::Checker: {
                bool odd = ((x / 16) ^ (y / 16)) & 1;
                out = odd ? c0 : c1;
                break;
              }
              case TexturePattern::Gradient: {
                float t = static_cast<float>(x + y) / (w + h - 2);
                out = Color::fromVec4(lerp(c0.toVec4(), c1.toVec4(), t));
                break;
              }
              case TexturePattern::Noise: {
                float n = valueNoise(rng, lattice, lattN,
                                     static_cast<float>(x) / w,
                                     static_cast<float>(y) / h);
                out = Color::fromVec4(lerp(c0.toVec4(), c1.toVec4(), n));
                break;
              }
              case TexturePattern::Atlas: {
                // 4x4 grid of sprites, each a distinct hue with a dark
                // 2-texel border, against a transparent background disc.
                u32 cell = (y / (h / 4)) * 4 + (x / (w / 4));
                u32 cx = x % (w / 4), cy = y % (h / 4);
                float dx = (static_cast<float>(cx) / (w / 4)) - 0.5f;
                float dy = (static_cast<float>(cy) / (h / 4)) - 0.5f;
                bool inside = dx * dx + dy * dy < 0.20f;
                if (!inside) {
                    out = Color(0, 0, 0, 0);
                } else {
                    u8 rr = static_cast<u8>(40 + 13 * cell);
                    u8 gg = static_cast<u8>(200 - 11 * cell);
                    u8 bb = static_cast<u8>(90 + 9 * cell);
                    out = Color(rr, gg, bb, 255);
                    if (dx * dx + dy * dy > 0.16f)
                        out = Color(20, 20, 30, 255);
                }
                break;
              }
            }
            texels[static_cast<std::size_t>(y) * w + x] = out;
        }
    }
}

} // namespace regpu
