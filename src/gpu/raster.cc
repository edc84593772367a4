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

/**
 * The calling thread's raster scratch, reused by every tile the thread
 * renders, so a steady-state renderTile allocates nothing. A thread
 * renders one tile at a time (the tile pool's contract), so nothing
 * else touches it meanwhile.
 */
struct RasterScratch
{
    std::vector<float> depth;  //!< the tile's Depth Buffer
    std::vector<float> colW0;  //!< per-column products of edge w0
    std::vector<float> colW1;  //!< per-column products of edge w1
};

RasterScratch &
rasterScratch()
{
    thread_local RasterScratch scratch;
    return scratch;
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

    // On-chip Color Buffer, cleared at tile start. The Depth Buffer is
    // cleared at the tile's first depth-tested primitive: a tile
    // without one never reads it.
    outColors.assign(static_cast<std::size_t>(tw) * th, clearColor);
    RasterScratch &scratch = rasterScratch();
    float *depth = nullptr;
    scratch.colW0.resize(tw);
    scratch.colW1.resize(tw);

    if (memo)
        memo->tileBegin(tile);

    for (const PrimRef &ref : frame.tileLists[tile]) {
        const Primitive &prim = frame.primitives[ref.primIndex];
        const DrawCall &draw = draws[prim.drawIndex];
        const ShaderKind kind = draw.state.shader;
        const Texture *tex = nullptr;
        if (shaderSamplesTexture(kind) && draw.state.textureId >= 0) {
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
        // Clamping in float first keeps a far-off vertex (trace input,
        // near-plane clipping's tiny w) from overflowing the int
        // conversion; a bbox that misses the tile covers no pixel.
        float minX, minY, maxX, maxY;
        prim.bounds(minX, minY, maxX, maxY);
        const float fx0 = std::max(std::floor(minX), static_cast<float>(tx0));
        const float fy0 = std::max(std::floor(minY), static_cast<float>(ty0));
        const float fx1 = std::min(std::ceil(maxX),
                                   static_cast<float>(tx0 + tw - 1));
        const float fy1 = std::min(std::ceil(maxY),
                                   static_cast<float>(ty0 + th - 1));
        if (!(fx0 <= fx1 && fy0 <= fy1))
            continue;
        const u32 px0 = static_cast<u32>(fx0);
        const u32 py0 = static_cast<u32>(fy0);
        const u32 px1 = static_cast<u32>(fx1);
        const u32 py1 = static_cast<u32>(fy1);

        // Per-primitive pipeline state. The shader reads exactly the
        // varyings fragmentSignature hashes; only those are
        // interpolated, and z only under a depth test.
        const BlendMode blendMode = draw.state.blendMode;
        const u32 instructions = fragmentShaderInstructions(kind);
        const bool depthTest = draw.state.depthTest;
        const bool depthWrite = depthTest && draw.state.depthWrite;
        const bool readsColor = kind == ShaderKind::VertexColor
            || kind == ShaderKind::TexModulate;
        const bool readsUv = shaderSamplesTexture(kind);
        const bool readsDiffuse = kind == ShaderKind::TexLit;
        const bool readsVaryings = readsColor || readsUv || readsDiffuse;
        const Lanes4 tint = toLanes(draw.state.uniforms.tint);
        const Lanes4 colorA = toLanes(a.color);
        const Lanes4 colorB = toLanes(b.color);
        const Lanes4 colorC = toLanes(c.color);

        if (depthTest && !depth) {
            scratch.depth.assign(static_cast<std::size_t>(tw) * th, 1.0f);
            depth = scratch.depth.data();
        }

        // Each edge function (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        // splits into a per-row and a per-column product: the same two
        // products and the same subtraction, so the same bits.
        float *colW0 = scratch.colW0.data();
        float *colW1 = scratch.colW1.data();
        for (u32 px = px0; px <= px1; px++) {
            const float sx = px + 0.5f;  // sample at the pixel centre
            colW0[px - px0] = (c.y - b.y) * (sx - b.x);
            colW1[px - px0] = (a.y - c.y) * (sx - c.x);
        }

        for (u32 py = py0; py <= py1; py++) {
            const float sy = py + 0.5f;
            const float rowW0 = (c.x - b.x) * (sy - b.y);
            const float rowW1 = (a.x - c.x) * (sy - c.y);
            for (u32 px = px0; px <= px1; px++) {
                float w0 = (rowW0 - colW0[px - px0]) * invArea;
                float w1 = (rowW1 - colW1[px - px0]) * invArea;
                float w2 = 1.0f - w0 - w1;
                // Top-left-agnostic inclusive test: consistent for
                // shared edges because weights are exact complements.
                if (w0 < 0 || w1 < 0 || w2 < 0)
                    continue;

                ts.fragmentsGenerated++;
                const std::size_t idx =
                    static_cast<std::size_t>(py - ty0) * tw + (px - tx0);

                // Early Depth Test on the interpolated depth (affine:
                // z is already projected).
                if (depthTest) {
                    float z = w0 * a.z + w1 * b.z + w2 * c.z;
                    if (z > depth[idx]) {
                        ts.fragmentsEarlyZKilled++;
                        continue;
                    }
                    if (depthWrite)
                        depth[idx] = z;
                }

                // Perspective-correct varying interpolation.
                Lanes4 vcolor{};
                Vec2 uv;
                float diffuse = 0;
                if (readsVaryings) {
                    float iw = w0 * a.invW + w1 * b.invW + w2 * c.invW;
                    float pc0 = w0 * a.invW / iw;
                    float pc1 = w1 * b.invW / iw;
                    float pc2 = 1.0f - pc0 - pc1;
                    if (readsColor)
                        vcolor = colorA * pc0 + colorB * pc1 + colorC * pc2;
                    if (readsUv)
                        uv = a.texcoord * pc0 + b.texcoord * pc1
                            + c.texcoord * pc2;
                    if (readsDiffuse)
                        diffuse = a.diffuse * pc0 + b.diffuse * pc1
                            + c.diffuse * pc2;
                }

                // Fragment Memoization hook: reuse before shading.
                Color src;
                u32 sig = 0;
                if (memo) {
                    sig = fragmentSignature(draw, toVec4(vcolor), uv,
                                            diffuse);
                    Color reused;
                    if (memo->lookup(sig, reused)) {
                        ts.fragmentsMemoReused++;
                        src = reused;
                        outColors[idx] =
                            blend(blendMode, src, outColors[idx]);
                        ts.blendOps++;
                        continue;
                    }
                }

                // Fragment Processor: execute the shader, one lane per
                // channel, in the scalar code's operation order.
                Lanes4 fcolor{};
                switch (kind) {
                  case ShaderKind::Flat:
                    fcolor = tint;
                    break;
                  case ShaderKind::VertexColor:
                    fcolor = vcolor * tint;
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
                    const Lanes4 t4 = texel.toLanes();
                    if (kind == ShaderKind::Textured) {
                        fcolor = t4 * tint;
                    } else if (kind == ShaderKind::TexModulate) {
                        fcolor = t4 * vcolor * tint;
                    } else {
                        // Lighting leaves alpha alone.
                        fcolor = t4 * diffuse * tint;
                        fcolor[3] = t4[3] * tint[3];
                    }
                    break;
                  }
                }
                src = Color::fromLanes(fcolor);
                ts.fragmentsShaded++;
                ts.shaderInstructions += instructions;

                if (memo)
                    memo->insert(sig, src);

                // Blend unit.
                outColors[idx] = blend(blendMode, src, outColors[idx]);
                ts.blendOps++;
            }
        }
    }

    return ts;
}

} // namespace regpu
