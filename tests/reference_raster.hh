/**
 * @file
 * A deliberately naive reference of the raster hot path, kept as the
 * oracle for TileRenderer::renderTile and Sampler::sample: the edge
 * function evaluated whole at every pixel, every varying interpolated
 * for every fragment, a std::floor sampler with scalar Vec4 lerps, a
 * scalar clamp-and-round color pack, and a fresh Depth Buffer per
 * tile. The four-lane fast path must match it bit for bit.
 *
 * Header-only on purpose: the tests/ tree has no library target.
 */

#ifndef REGPU_TESTS_REFERENCE_RASTER_HH
#define REGPU_TESTS_REFERENCE_RASTER_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "gpu/memiface.hh"
#include "gpu/raster.hh"

namespace regpu::testutil
{

/** Scalar float RGBA in [0,1] to packed 8-bit. */
inline Color
referenceFromVec4(Vec4 v)
{
    auto q = [](float f) {
        return static_cast<u8>(clampf(f, 0.0f, 1.0f) * 255.0f + 0.5f);
    };
    return {q(v.x), q(v.y), q(v.z), q(v.w)};
}

/** A texel coordinate as the sampler converts it: NaN reads as 0 and
 *  the rest is clamped to [-2^30, 2^30], so the floor and u0 + 1 are
 *  defined. */
inline float
referenceClampTexelCoord(float f)
{
    const float limit = 1073741824.0f;
    return std::isnan(f) ? 0.0f : std::clamp(f, -limit, limit);
}

/** Bilinear sample with std::floor texel coordinates and Vec4 lerps. */
inline Color
referenceSample(const Texture &tex, float s, float t,
                TexelFootprint *touched)
{
    float u = referenceClampTexelCoord(s * tex.width() - 0.5f);
    float v = referenceClampTexelCoord(t * tex.height() - 0.5f);
    i32 u0 = static_cast<i32>(std::floor(u));
    i32 v0 = static_cast<i32>(std::floor(v));
    float fu = u - u0, fv = v - v0;
    if (touched)
        *touched = {{tex.texelAddr(u0, v0), tex.texelAddr(u0 + 1, v0),
                     tex.texelAddr(u0, v0 + 1),
                     tex.texelAddr(u0 + 1, v0 + 1)},
                    4};
    Vec4 a = lerp(tex.texel(u0, v0).toVec4(),
                  tex.texel(u0 + 1, v0).toVec4(), fu);
    Vec4 b = lerp(tex.texel(u0, v0 + 1).toVec4(),
                  tex.texel(u0 + 1, v0 + 1).toVec4(), fu);
    return referenceFromVec4(lerp(a, b, fv));
}

/** TileRenderer::renderTile, one pixel and one fragment at a time.
 *  Primitive bounds must convert to i32. */
inline TileRenderStats
referenceRenderTile(const GpuConfig &config, MemTraceSink *mem,
                    const std::vector<Texture> &textures,
                    FragmentMemoClient *memo, TileId tile,
                    const BinnedFrame &frame,
                    const std::vector<DrawCall> &draws, Color clearColor,
                    std::vector<Color> &outColors)
{
    auto edge = [](float ax, float ay, float bx, float by, float px,
                   float py) {
        return (bx - ax) * (py - ay) - (by - ay) * (px - ax);
    };

    TileRenderStats ts;
    const u32 tw = config.tileWidth;
    const u32 th = config.tileHeight;
    const u32 tx0 = (tile % config.tilesX()) * tw;
    const u32 ty0 = (tile / config.tilesX()) * th;
    outColors.assign(static_cast<std::size_t>(tw) * th, clearColor);
    std::vector<float> depth(static_cast<std::size_t>(tw) * th, 1.0f);

    if (memo)
        memo->tileBegin(tile);

    for (const PrimRef &ref : frame.tileLists[tile]) {
        const Primitive &prim = frame.primitives[ref.primIndex];
        const DrawCall &draw = draws[prim.drawIndex];
        const Texture *tex = nullptr;
        if (shaderSamplesTexture(draw.state.shader)
            && draw.state.textureId >= 0)
            tex = &textures.at(draw.state.textureId);

        ts.primitivesFetched++;
        ts.parameterBytesRead += ref.pbBytes;
        if (mem)
            mem->parameterRead(ref.pbAddr, ref.pbBytes);

        const ShadedVertex &a = prim.v[0];
        const ShadedVertex &b = prim.v[1];
        const ShadedVertex &c = prim.v[2];
        float area2 = prim.signedArea2();
        if (area2 == 0)
            continue;
        float invArea = 1.0f / area2;

        float minX, minY, maxX, maxY;
        prim.bounds(minX, minY, maxX, maxY);
        i32 px0 = std::max<i32>(tx0, static_cast<i32>(std::floor(minX)));
        i32 py0 = std::max<i32>(ty0, static_cast<i32>(std::floor(minY)));
        i32 px1 = std::min<i32>(tx0 + tw - 1,
                                static_cast<i32>(std::ceil(maxX)));
        i32 py1 = std::min<i32>(ty0 + th - 1,
                                static_cast<i32>(std::ceil(maxY)));

        for (i32 py = py0; py <= py1; py++) {
            for (i32 px = px0; px <= px1; px++) {
                float sx = static_cast<u32>(px) + 0.5f;
                float sy = static_cast<u32>(py) + 0.5f;
                float w0 = edge(b.x, b.y, c.x, c.y, sx, sy) * invArea;
                float w1 = edge(c.x, c.y, a.x, a.y, sx, sy) * invArea;
                float w2 = 1.0f - w0 - w1;
                if (w0 < 0 || w1 < 0 || w2 < 0)
                    continue;

                ts.fragmentsGenerated++;
                float z = w0 * a.z + w1 * b.z + w2 * c.z;
                const std::size_t idx =
                    static_cast<std::size_t>(py - ty0) * tw + (px - tx0);
                if (draw.state.depthTest && z > depth[idx]) {
                    ts.fragmentsEarlyZKilled++;
                    continue;
                }
                if (draw.state.depthTest && draw.state.depthWrite)
                    depth[idx] = z;

                float iw = w0 * a.invW + w1 * b.invW + w2 * c.invW;
                float pc0 = w0 * a.invW / iw;
                float pc1 = w1 * b.invW / iw;
                float pc2 = 1.0f - pc0 - pc1;
                Vec4 vcolor = a.color * pc0 + b.color * pc1
                    + c.color * pc2;
                Vec2 uv = a.texcoord * pc0 + b.texcoord * pc1
                    + c.texcoord * pc2;
                float diffuse = a.diffuse * pc0 + b.diffuse * pc1
                    + c.diffuse * pc2;

                u32 sig = 0;
                if (memo) {
                    sig = TileRenderer::fragmentSignature(draw, vcolor, uv,
                                                          diffuse);
                    Color reused;
                    if (memo->lookup(sig, reused)) {
                        ts.fragmentsMemoReused++;
                        outColors[idx] = blend(draw.state.blendMode,
                                               reused, outColors[idx]);
                        ts.blendOps++;
                        continue;
                    }
                }

                const UniformSet &u = draw.state.uniforms;
                Vec4 fcolor;
                switch (draw.state.shader) {
                  case ShaderKind::Flat:
                    fcolor = u.tint;
                    break;
                  case ShaderKind::VertexColor:
                    fcolor = {vcolor.x * u.tint.x, vcolor.y * u.tint.y,
                              vcolor.z * u.tint.z, vcolor.w * u.tint.w};
                    break;
                  case ShaderKind::Textured:
                  case ShaderKind::TexModulate:
                  case ShaderKind::TexLit: {
                    TexelFootprint touched;
                    Color texel = tex
                        ? referenceSample(*tex, uv.x, uv.y, &touched)
                        : Color(255, 0, 255);
                    if (tex && mem)
                        mem->texelFetches(
                            ((px >> 1) + (py >> 1))
                                % config.numTextureCaches,
                            touched.addrs());
                    ts.texelFetches += touched.count;
                    Vec4 t4 = texel.toVec4();
                    if (draw.state.shader == ShaderKind::Textured) {
                        fcolor = {t4.x * u.tint.x, t4.y * u.tint.y,
                                  t4.z * u.tint.z, t4.w * u.tint.w};
                    } else if (draw.state.shader
                               == ShaderKind::TexModulate) {
                        fcolor = {t4.x * vcolor.x * u.tint.x,
                                  t4.y * vcolor.y * u.tint.y,
                                  t4.z * vcolor.z * u.tint.z,
                                  t4.w * vcolor.w * u.tint.w};
                    } else {
                        fcolor = {t4.x * diffuse * u.tint.x,
                                  t4.y * diffuse * u.tint.y,
                                  t4.z * diffuse * u.tint.z,
                                  t4.w * u.tint.w};
                    }
                    break;
                  }
                }
                Color src = referenceFromVec4(fcolor);
                ts.fragmentsShaded++;
                ts.shaderInstructions +=
                    fragmentShaderInstructions(draw.state.shader);
                if (memo)
                    memo->insert(sig, src);
                outColors[idx] =
                    blend(draw.state.blendMode, src, outColors[idx]);
                ts.blendOps++;
            }
        }
    }
    return ts;
}

} // namespace regpu::testutil

#endif // REGPU_TESTS_REFERENCE_RASTER_HH
