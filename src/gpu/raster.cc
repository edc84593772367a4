#include "gpu/raster.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "crc/crc32.hh"
#include "gpu/memiface.hh"

namespace regpu
{

namespace
{

/** Edge function: twice the signed area of (a, b, p). */
inline float
edge(float ax, float ay, float bx, float by, float px, float py)
{
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax);
}

} // namespace

u32
TileRenderer::fragmentSignature(const DrawCall &draw, Vec4 color,
                                Vec2 texcoord, float diffuse)
{
    // Hash the exact bits of the inputs this shader consumes: the
    // pipeline state, the uniforms it reads and the varyings feeding
    // it. Frame-to-frame redundant fragments (same primitive, same
    // pixel, nothing moved) interpolate to bit-identical varyings, so
    // exact hashing finds the reuse the paper targets while never
    // reusing an only-approximately-equal color. Varyings the shader
    // ignores are excluded: a flat-shaded fragment's color does not
    // depend on them, so including them would only destroy reuse.
    // Streamed through a fixed stack buffer: the whole serialisation
    // is at most 4 + 16 + 16 + 12 + 4 bytes, and one crc pass over a
    // contiguous buffer keeps the slice-by-8 path hot.
    u8 buf[4 + 4 * 4 + 4 * 4 + 2 * 4 + 4 + 4];
    u32 off = 0;
    auto put32 = [&](u32 v) {
        std::memcpy(buf + off, &v, 4);
        off += 4;
    };
    auto putf = [&](float f) {
        u32 bits;
        std::memcpy(&bits, &f, 4);
        put32(bits);
    };
    const ShaderKind kind = draw.state.shader;
    put32(static_cast<u32>(kind) |
          (static_cast<u32>(draw.state.blendMode) << 8));
    const Vec4 tint = draw.state.uniforms.tint;
    putf(tint.x);
    putf(tint.y);
    putf(tint.z);
    putf(tint.w);
    if (kind == ShaderKind::VertexColor || kind == ShaderKind::TexModulate) {
        putf(color.x);
        putf(color.y);
        putf(color.z);
        putf(color.w);
    }
    if (shaderSamplesTexture(kind)) {
        putf(texcoord.x);
        putf(texcoord.y);
        put32(static_cast<u32>(draw.state.textureId + 1));
    }
    if (kind == ShaderKind::TexLit)
        putf(diffuse);
    return crc32Tabular({buf, off});
}

TileRenderStats
TileRenderer::renderTile(TileId tile, const BinnedFrame &frame,
                         const std::vector<DrawCall> &draws,
                         Color clearColor, std::vector<Color> &outColors)
{
    TileRenderStats ts;
    const u32 tw = config.tileWidth;
    const u32 th = config.tileHeight;
    const u32 tx0 = (tile % config.tilesX()) * tw;
    const u32 ty0 = (tile / config.tilesX()) * th;

    // On-chip Color and Depth buffers, cleared at tile start.
    outColors.assign(static_cast<std::size_t>(tw) * th, clearColor);
    std::vector<float> depth(static_cast<std::size_t>(tw) * th, 1.0f);

    if (memo)
        memo->tileBegin(tile);

    for (const PrimRef &ref : frame.tileLists[tile]) {
        const Primitive &prim = frame.primitives[ref.primIndex];
        const DrawCall &draw = draws[prim.drawIndex];
        const Texture *tex = nullptr;
        if (shaderSamplesTexture(draw.state.shader)
            && draw.state.textureId >= 0) {
            REGPU_ASSERT(static_cast<u32>(draw.state.textureId)
                         < textures.size(), "texture id out of range");
            tex = &textures[draw.state.textureId];
        }

        // Tile Scheduler: fetch the primitive's attribute data from
        // the Parameter Buffer through the Tile Cache.
        ts.primitivesFetched++;
        ts.parameterBytesRead += ref.pbBytes;
        if (mem)
            mem->parameterRead(ref.pbAddr, ref.pbBytes);

        // Rasterizer setup: edge functions from the vertices.
        const ShadedVertex &a = prim.v[0];
        const ShadedVertex &b = prim.v[1];
        const ShadedVertex &c = prim.v[2];
        float area2 = prim.signedArea2();
        if (area2 == 0)
            continue;
        float invArea = 1.0f / area2;

        // Restrict to the intersection of the bbox and this tile.
        float minX, minY, maxX, maxY;
        prim.bounds(minX, minY, maxX, maxY);
        u32 px0 = std::max<i32>(tx0, static_cast<i32>(std::floor(minX)));
        u32 py0 = std::max<i32>(ty0, static_cast<i32>(std::floor(minY)));
        u32 px1 = std::min<i32>(tx0 + tw - 1,
                                static_cast<i32>(std::ceil(maxX)));
        u32 py1 = std::min<i32>(ty0 + th - 1,
                                static_cast<i32>(std::ceil(maxY)));

        for (u32 py = py0; py <= py1; py++) {
            for (u32 px = px0; px <= px1; px++) {
                // Sample at the pixel centre.
                float sx = px + 0.5f;
                float sy = py + 0.5f;
                float w0 = edge(b.x, b.y, c.x, c.y, sx, sy) * invArea;
                float w1 = edge(c.x, c.y, a.x, a.y, sx, sy) * invArea;
                float w2 = 1.0f - w0 - w1;
                // Top-left-agnostic inclusive test: consistent for
                // shared edges because weights are exact complements.
                if (w0 < 0 || w1 < 0 || w2 < 0)
                    continue;

                ts.fragmentsGenerated++;

                // Interpolate depth (affine: z is already projected).
                float z = w0 * a.z + w1 * b.z + w2 * c.z;
                const std::size_t idx =
                    static_cast<std::size_t>(py - ty0) * tw + (px - tx0);

                // Early Depth Test.
                if (draw.state.depthTest && z > depth[idx]) {
                    ts.fragmentsEarlyZKilled++;
                    continue;
                }
                if (draw.state.depthTest && draw.state.depthWrite)
                    depth[idx] = z;

                // Perspective-correct varying interpolation.
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

                // Fragment Memoization hook: reuse before shading.
                Color src;
                u32 sig = 0;
                if (memo) {
                    sig = fragmentSignature(draw, vcolor, uv, diffuse);
                    Color reused;
                    if (memo->lookup(sig, reused)) {
                        ts.fragmentsMemoReused++;
                        src = reused;
                        outColors[idx] =
                            blend(draw.state.blendMode, src,
                                  outColors[idx]);
                        ts.blendOps++;
                        continue;
                    }
                }

                // Fragment Processor: execute the shader.
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
                        ? Sampler::sample(*tex, uv.x, uv.y, &touched)
                        : Color(255, 0, 255);
                    if (tex && mem) {
                        // Round-robin texel streams over the 4 texture
                        // caches by fragment-quad position.
                        u32 cacheIdx = ((px >> 1) + (py >> 1))
                            % config.numTextureCaches;
                        mem->texelFetches(cacheIdx, touched.addrs());
                    }
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
                src = Color::fromVec4(fcolor);
                ts.fragmentsShaded++;
                ts.shaderInstructions +=
                    fragmentShaderInstructions(draw.state.shader);

                if (memo)
                    memo->insert(sig, src);

                // Blend unit.
                outColors[idx] =
                    blend(draw.state.blendMode, src, outColors[idx]);
                ts.blendOps++;
            }
        }
    }

    return ts;
}

} // namespace regpu
