#include "gpu/raster.hh"

#include <algorithm>
#include <array>
#include <bit>
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
    std::vector<float> depth;  //!< the tile's Depth Buffer (padded)
    std::vector<float> colW0;  //!< per-column products of edge w0
    std::vector<float> colW1;  //!< per-column products of edge w1
    std::vector<u32> quadCol;  //!< per tile column: (px >> 1) % caches
    std::vector<u32> quadRow;  //!< per tile row: (py >> 1) % caches
    TexelRepeatFilter filter;  //!< the tile's texel repeats
};

RasterScratch &
rasterScratch()
{
    thread_local RasterScratch scratch;
    return scratch;
}

/** Pixels a lane group spans: one per Lanes4 lane. */
constexpr u32 groupWidth = 4;

Lanes4
load4(const float *p)
{
    Lanes4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store4(float *p, Lanes4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/** A lane mask (-1 where a comparison held) as bits, lane 0 lowest. */
u32
laneBits(I32Lanes4 m)
{
    const I32Lanes4 b = m & I32Lanes4{1, 2, 4, 8};
    return static_cast<u32>(b[0] | b[1] | b[2] | b[3]);
}

/** Set bits of a lane mask (std::popcount is a libgcc call on the
 *  baseline ISA). */
u32
laneCount(u32 bits)
{
    return (bits & 1) + (bits >> 1 & 1) + (bits >> 2 & 1) + (bits >> 3);
}

/** (v >> 1) % n for each v in [first, first + out.size()), stepping
 *  instead of dividing: the residue advances at every even v. */
void
quadResidues(u32 first, u32 n, std::vector<u32> &out)
{
    u32 r = (first >> 1) % n;
    for (u32 k = 0; k < out.size(); k++) {
        if (k > 0 && (first + k) % 2 == 0)
            r = r + 1 == n ? 0 : r + 1;
        out[k] = r;
    }
}

/** laneBits' inverse. */
I32Lanes4
laneMask(u32 bits)
{
    return (I32Lanes4{1, 2, 4, 8} & static_cast<i32>(bits)) != 0;
}

} // namespace

void
TexelRepeatFilter::beginTile(const GpuConfig &config)
{
    const CacheParams &cache = config.textureCache;
    const u64 sets = cache.sizeBytes / (u64{cache.lineBytes} * cache.ways);
    lineShift = static_cast<u32>(std::countr_zero(cache.lineBytes));
    setBits = static_cast<u32>(std::countr_zero(sets));
    setMask = sets - 1;
    slots.resize(std::size_t{config.numTextureCaches} << setBits);
    generation++;
}

u64
TexelCapture::emit(MemTraceSink &sink, TileId tile,
                   const BinnedFrame &frame,
                   const std::vector<DrawCall> &draws,
                   const std::vector<Texture> &textures) const
{
    const std::vector<PrimRef> &list = frame.tileLists[tile];
    REGPU_ASSERT(primFirst.size() == list.size(),
                 "texel capture of another primitive list");
    // A run of kept fetches through one cache goes as one call.
    std::array<Addr, 16> run;
    for (std::size_t i = 0; i < list.size(); i++) {
        const PrimRef &ref = list[i];
        sink.parameterRead(ref.pbAddr, ref.pbBytes);
        std::size_t k = primFirst[i];
        const std::size_t end =
            i + 1 < list.size() ? primFirst[i + 1] : texel.size();
        if (k == end)
            continue;
        // A primitive that fetched had a texture bound.
        const Primitive &prim = frame.primitives[ref.primIndex];
        const Texture &tex =
            textures[draws[prim.drawIndex].state.textureId];
        while (k < end) {
            const u32 c = cache[k];
            std::size_t n = 0;
            while (k < end && cache[k] == c && n < run.size())
                run[n++] = tex.indexAddr(texel[k++]);
            sink.texelFetches(c, {run.data(), n});
        }
    }
    u64 dropped = 0;
    for (u32 c = 0; c < repeats.size(); c++) {
        if (repeats[c].count) {
            sink.texelRepeatHits(c, repeats[c].lastAddr, repeats[c].count);
            dropped += repeats[c].count;
        }
    }
    return dropped;
}

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
                         Color clearColor, std::vector<Color> &outColors,
                         TexelCapture *capture)
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
    const u32 paddedWidth = (tw + groupWidth - 1) / groupWidth * groupWidth;
    scratch.colW0.resize(paddedWidth);
    scratch.colW1.resize(paddedWidth);
    // Texel streams go round-robin over the texture caches by
    // fragment-quad position, ((px >> 1) + (py >> 1)) % caches. The
    // sum of the two terms' residues, less caches if it reaches it, is
    // that residue without a division per fragment.
    const u32 caches = config.numTextureCaches;
    scratch.quadCol.resize(tw);
    scratch.quadRow.resize(th);
    quadResidues(tx0, caches, scratch.quadCol);
    quadResidues(ty0, caches, scratch.quadRow);

    if (memo)
        memo->tileBegin(tile);
    TexelRepeatFilter &filter = scratch.filter;
    TexelCapture::Repeats *repeats = nullptr;
    if (capture) {
        filter.beginTile(config);
        capture->primFirst.clear();
        capture->texel.clear();
        capture->cache.clear();
        capture->repeats.assign(caches, {});
        repeats = capture->repeats.data();
    }

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
        if (capture)
            capture->primFirst.push_back(
                static_cast<u32>(capture->texel.size()));

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
        const Vec4 tint = draw.state.uniforms.tint;
        const Color flatColor = Color::fromVec4(tint);

        if (depthTest && !depth) {
            // Padded so that a row-end group's load and store of four
            // lanes stay inside the buffer.
            scratch.depth.assign(
                static_cast<std::size_t>(tw) * th + groupWidth - 1, 1.0f);
            depth = scratch.depth.data();
        }

        // Each edge function (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        // splits into a per-row and a per-column product: the same two
        // products and the same subtraction, so the same bits. The
        // columns run on to whole lane groups; lanes past px1 are
        // masked off.
        const u32 span = px1 - px0 + 1;
        const u32 groupedSpan =
            (span + groupWidth - 1) / groupWidth * groupWidth;
        float *colW0 = scratch.colW0.data();
        float *colW1 = scratch.colW1.data();
        for (u32 i = 0; i < groupedSpan; i++) {
            const float sx = (px0 + i) + 0.5f;  // sample at the pixel centre
            colW0[i] = (c.y - b.y) * (sx - b.x);
            colW1[i] = (a.y - c.y) * (sx - c.x);
        }

        for (u32 py = py0; py <= py1; py++) {
            const float sy = py + 0.5f;
            const float rowW0 = (c.x - b.x) * (sy - b.y);
            const float rowW1 = (a.x - c.x) * (sy - c.y);
            const std::size_t rowIdx =
                static_cast<std::size_t>(py - ty0) * tw + (px0 - tx0);

            // Four pixels of the row per step, one per lane. Every lane
            // is computed; only covered ones emit.
            for (u32 i = 0; i < span; i += groupWidth) {
                const Lanes4 w0 = (rowW0 - load4(colW0 + i)) * invArea;
                const Lanes4 w1 = (rowW1 - load4(colW1 + i)) * invArea;
                const Lanes4 w2 = 1.0f - w0 - w1;
                // Top-left-agnostic inclusive test: consistent for
                // shared edges because weights are exact complements.
                // A NaN weight fails no compare, so it counts as
                // covered, as in the scalar test.
                const u32 live = span - i >= groupWidth
                    ? 0xFu : (1u << (span - i)) - 1;
                u32 mask = ~laneBits((w0 < 0.0f) | (w1 < 0.0f)
                                     | (w2 < 0.0f)) & live;
                if (!mask)
                    continue;
                ts.fragmentsGenerated += laneCount(mask);

                // Early Depth Test on the interpolated depth (affine:
                // z is already projected).
                if (depthTest) {
                    float *const zs = depth + rowIdx + i;
                    const Lanes4 z = w0 * a.z + w1 * b.z + w2 * c.z;
                    const Lanes4 old = load4(zs);
                    const u32 killed = mask & laneBits(z > old);
                    ts.fragmentsEarlyZKilled += laneCount(killed);
                    mask &= ~killed;
                    if (depthWrite)
                        store4(zs, laneMask(mask) ? z : old);
                    if (!mask)
                        continue;
                }

                // Perspective-correct varying interpolation.
                Lanes4 vcolor[4] = {};
                Lanes4 u{}, v{}, diffuse{};
                if (readsVaryings) {
                    const Lanes4 iw = w0 * a.invW + w1 * b.invW + w2 * c.invW;
                    const Lanes4 pc0 = w0 * a.invW / iw;
                    const Lanes4 pc1 = w1 * b.invW / iw;
                    const Lanes4 pc2 = 1.0f - pc0 - pc1;
                    auto interpolate = [&](float fa, float fb, float fc) {
                        return fa * pc0 + fb * pc1 + fc * pc2;
                    };
                    if (readsColor) {
                        for (int ch = 0; ch < 4; ch++)
                            vcolor[ch] = interpolate(a.color[ch],
                                                     b.color[ch],
                                                     c.color[ch]);
                    }
                    if (readsUv) {
                        u = interpolate(a.texcoord.x, b.texcoord.x,
                                        c.texcoord.x);
                        v = interpolate(a.texcoord.y, b.texcoord.y,
                                        c.texcoord.y);
                    }
                    if (readsDiffuse)
                        diffuse = interpolate(a.diffuse, b.diffuse,
                                              c.diffuse);
                }

                // Fragment Processor: execute the shader for every lane,
                // each in the scalar code's operation order. A lane the
                // memo then serves discards its color (and its texel
                // reads are never reported).
                U32Lanes4 src = U32Lanes4{} + flatColor.packed();
                U32Lanes4 texels[4] = {};
                if (kind != ShaderKind::Flat) {
                    Lanes4 fcolor[4];
                    if (kind == ShaderKind::VertexColor) {
                        for (int ch = 0; ch < 4; ch++)
                            fcolor[ch] = vcolor[ch] * tint[ch];
                    } else {
                        const Sampler::Channels texel = tex
                            ? Sampler::sampleLanes(*tex, u, v, texels)
                            : Sampler::Channels{I32Lanes4{} + 255,
                                                I32Lanes4{},
                                                I32Lanes4{} + 255,
                                                I32Lanes4{} + 255};
                        for (int ch = 0; ch < 4; ch++) {
                            const Lanes4 t = unorm8Lanes(texel[ch]);
                            if (kind == ShaderKind::Textured)
                                fcolor[ch] = t * tint[ch];
                            else if (kind == ShaderKind::TexModulate)
                                fcolor[ch] = t * vcolor[ch] * tint[ch];
                            else if (ch < 3)
                                fcolor[ch] = t * diffuse * tint[ch];
                            else  // lighting leaves alpha alone
                                fcolor[ch] = t * tint[ch];
                        }
                    }
                    src = U32Lanes4{};
                    for (int ch = 0; ch < 4; ch++)
                        src |= std::bit_cast<U32Lanes4>(
                                   quantizeUnorm8(fcolor[ch]) & 255)
                            << (8 * ch);
                }

                // Each covered lane, in pixel order: memo lookup,
                // texel fetches, memo insert and blend.
                for (u32 bits = mask; bits; bits &= bits - 1) {
                    const int lane = std::countr_zero(bits);
                    const u32 px = px0 + i + lane;
                    Color &dst = outColors[rowIdx + i + lane];

                    // Fragment Memoization hook: reuse before shading.
                    u32 sig = 0;
                    if (memo) {
                        sig = fragmentSignature(
                            draw,
                            {vcolor[0][lane], vcolor[1][lane],
                             vcolor[2][lane], vcolor[3][lane]},
                            {u[lane], v[lane]}, diffuse[lane]);
                        Color reused;
                        if (memo->lookup(sig, reused)) {
                            ts.fragmentsMemoReused++;
                            dst = blend(blendMode, reused, dst);
                            ts.blendOps++;
                            continue;
                        }
                    }

                    if (tex) {
                        const u32 quad = scratch.quadCol[px - tx0]
                            + scratch.quadRow[py - ty0];
                        const u32 cache = quad >= caches ? quad - caches : quad;
                        if (capture) {
                            const std::array<Addr, 4> addrs = {
                                tex->indexAddr(texels[0][lane]),
                                tex->indexAddr(texels[1][lane]),
                                tex->indexAddr(texels[2][lane]),
                                tex->indexAddr(texels[3][lane])};
                            const u32 kept = filter.keptOfSample(cache, addrs);
                            repeats[cache].count += 4 - laneCount(kept);
                            repeats[cache].lastAddr = addrs[3];
                            for (u32 rest = kept; rest; rest &= rest - 1) {
                                capture->texel.push_back(
                                    texels[std::countr_zero(rest)][lane]);
                                capture->cache.push_back(
                                    static_cast<u8>(cache));
                            }
                        }
                        ts.texelFetches += 4;
                    }
                    const Color color = Color::fromPacked(src[lane]);
                    ts.fragmentsShaded++;
                    ts.shaderInstructions += instructions;

                    if (memo)
                        memo->insert(sig, color);

                    // Blend unit.
                    dst = blend(blendMode, color, dst);
                    ts.blendOps++;
                }
            }
        }
    }

    return ts;
}

} // namespace regpu
