#include "trace/trace_format.hh"

#include "common/config.hh"
#include "crc/crc32.hh"
#include "gpu/shader.hh"

namespace regpu
{

u32
traceChunkCrc(u32 type, std::span<const u8> payload)
{
    Crc32Stream crc;
    crc.putU32(type);
    crc.putU32(static_cast<u32>(payload.size()));
    crc.putU32(static_cast<u32>(payload.size() >> 32));
    crc.update(payload);
    return crc.value();
}

void
serializeMeta(ByteBuffer &out, const TraceMeta &meta)
{
    out.putString(meta.name);
    out.putU64(meta.seed);
    out.putU64(meta.frames);
    out.putU32(meta.screenWidth);
    out.putU32(meta.screenHeight);
    out.putU32(meta.tileWidth);
    out.putU32(meta.tileHeight);
    out.putU32(meta.textureCount);
}

TraceMeta
deserializeMeta(ByteCursor &in)
{
    TraceMeta meta;
    meta.name = in.getString();
    meta.seed = in.getU64();
    meta.frames = in.getU64();
    meta.screenWidth = in.getU32();
    meta.screenHeight = in.getU32();
    meta.tileWidth = in.getU32();
    meta.tileHeight = in.getU32();
    meta.textureCount = in.getU32();
    // A replay adopts this geometry. GpuConfig::validate() applies the
    // same rule, but in the Simulator, on a worker thread, and only
    // after the sizes were trusted.
    const std::string sizes = screenSizeError(
        meta.screenWidth, meta.screenHeight, meta.tileWidth,
        meta.tileHeight);
    if (!sizes.empty())
        in.fail(sizes);
    return meta;
}

void
serializeTexture(ByteBuffer &out, const Texture &tex)
{
    out.putU32(tex.id());
    out.putU32(tex.width());
    out.putU32(tex.height());
    for (const Color &c : tex.texelData())
        out.putU32(c.packed());
}

std::optional<Texture>
deserializeTexture(ByteCursor &in)
{
    const u32 id = in.getU32();
    const u32 w = in.getU32();
    const u32 h = in.getU32();
    if (w == 0 || h == 0 || (w & (w - 1)) != 0 || (h & (h - 1)) != 0)
        in.fail("texture ", id, " has invalid dimensions ", w, "x", h);
    // Bound the count by the bytes actually present before reserving:
    // a malformed count must fail with a diagnostic, not abort in the
    // allocator.
    else if (static_cast<u64>(w) * h > in.remaining() / 4)
        in.fail("texture ", id, " declares ", w, "x", h,
                " texels but only ", in.remaining(),
                " payload bytes remain");
    if (!in.ok())
        return std::nullopt;
    std::vector<Color> texels(static_cast<std::size_t>(w) * h);
    for (Color &c : texels)
        c = Color::fromPacked(in.getU32());
    return Texture(id, w, h, std::move(texels));
}

namespace
{

/** Visit the 25 uniform floats in wire order: mvp (row-major), tint,
 *  lightDir, uv offsets. */
template <typename Uniforms, typename Visit>
void
forEachUniformFloat(Uniforms &u, Visit &&visit)
{
    for (int r = 0; r < 4; r++)
        for (int c = 0; c < 4; c++)
            visit(u.mvp.m[r][c]);
    for (auto *f : {&u.tint.x, &u.tint.y, &u.tint.z, &u.tint.w,
                    &u.lightDir.x, &u.lightDir.y, &u.lightDir.z,
                    &u.uvOffsetS, &u.uvOffsetT})
        visit(*f);
}

/** Visit a vertex's 12 floats in wire order: position, color,
 *  texcoord, normal. */
template <typename V, typename Visit>
void
forEachVertexFloat(V &v, Visit &&visit)
{
    for (auto *f : {&v.position.x, &v.position.y, &v.position.z,
                    &v.color.x, &v.color.y, &v.color.z, &v.color.w,
                    &v.texcoord.x, &v.texcoord.y, &v.normal.x,
                    &v.normal.y, &v.normal.z})
        visit(*f);
}

void
serializeDraw(ByteBuffer &out, const DrawCall &draw)
{
    out.putU8(static_cast<u8>(draw.state.shader));
    out.putU8(static_cast<u8>(draw.state.blendMode));
    out.putU8(draw.state.depthTest ? 1 : 0);
    out.putU8(draw.state.depthWrite ? 1 : 0);
    out.putI32(draw.state.textureId);
    out.putU32(draw.vertexBufferId);

    out.putU8(draw.layout.hasColor ? 1 : 0);
    out.putU8(draw.layout.hasTexcoord ? 1 : 0);
    out.putU8(draw.layout.hasNormal ? 1 : 0);
    out.putU8(0);  // pad to keep the uniform block 4-byte aligned

    auto put = [&](float f) { out.putF32(f); };
    forEachUniformFloat(draw.state.uniforms, put);
    out.putU32(static_cast<u32>(draw.vertices.size()));
    for (const Vertex &v : draw.vertices)
        forEachVertexFloat(v, put);
}

DrawCall
deserializeDraw(ByteCursor &in, u32 textureCount)
{
    DrawCall draw;
    const u8 shader = in.getU8();
    if (shader > static_cast<u8>(ShaderKind::TexLit))
        in.fail("unknown shader kind ", unsigned(shader));
    draw.state.shader = static_cast<ShaderKind>(shader);
    const u8 blend = in.getU8();
    if (blend > static_cast<u8>(BlendMode::Additive))
        in.fail("unknown blend mode ", unsigned(blend));
    draw.state.blendMode = static_cast<BlendMode>(blend);
    draw.state.depthTest = in.getU8() != 0;
    draw.state.depthWrite = in.getU8() != 0;
    draw.state.textureId = in.getI32();
    // The raster indexes the texture set with this id.
    if (shaderSamplesTexture(draw.state.shader)
        && draw.state.textureId >= 0
        && static_cast<u32>(draw.state.textureId) >= textureCount)
        in.fail("draw samples texture ", draw.state.textureId,
                " but the trace has ", textureCount, " textures");
    draw.vertexBufferId = in.getU32();

    draw.layout.hasColor = in.getU8() != 0;
    draw.layout.hasTexcoord = in.getU8() != 0;
    draw.layout.hasNormal = in.getU8() != 0;
    in.getU8();  // pad

    auto get = [&](float &f) { f = in.getF32(); };
    forEachUniformFloat(draw.state.uniforms, get);
    const u32 vertexCount = in.getU32();
    if (vertexCount > in.remaining() / (12 * 4))
        in.fail("draw declares ", vertexCount, " vertices but only ",
                in.remaining(), " payload bytes remain");
    draw.vertices.resize(in.ok() ? vertexCount : 0);
    for (Vertex &v : draw.vertices)
        forEachVertexFloat(v, get);
    return draw;
}

} // namespace

void
serializeFrame(ByteBuffer &out, u64 frameIndex, const FrameCommands &cmds)
{
    out.putU64(frameIndex);
    out.putU8(cmds.globalStateChanged ? 1 : 0);
    out.putU8(cmds.clearColor.r);
    out.putU8(cmds.clearColor.g);
    out.putU8(cmds.clearColor.b);
    out.putU8(cmds.clearColor.a);
    out.putU32(static_cast<u32>(cmds.draws.size()));
    for (const DrawCall &draw : cmds.draws)
        serializeDraw(out, draw);
}

FrameCommands
deserializeFrame(ByteCursor &in, u64 frameIndex, u32 textureCount)
{
    const u64 storedIndex = in.getU64();
    if (storedIndex != frameIndex)
        in.fail("records frame ", storedIndex, ", expected frame ",
                frameIndex);
    FrameCommands cmds;
    cmds.globalStateChanged = in.getU8() != 0;
    cmds.clearColor.r = in.getU8();
    cmds.clearColor.g = in.getU8();
    cmds.clearColor.b = in.getU8();
    cmds.clearColor.a = in.getU8();
    // A draw's wire minimum: 4 state bytes + textureId + bufferId +
    // 4 layout bytes + 25 uniform floats + vertex count = 120 bytes.
    const u32 drawCount = in.getU32();
    if (drawCount > in.remaining() / 120)
        in.fail("frame declares ", drawCount, " draws but only ",
                in.remaining(), " payload bytes remain");
    cmds.draws.reserve(in.ok() ? drawCount : 0);
    for (u32 i = 0; i < drawCount && in.ok(); i++)
        cmds.draws.push_back(deserializeDraw(in, textureCount));
    return cmds;
}

void
serializeIndex(ByteBuffer &out, std::span<const u64> frameOffsets)
{
    out.putU64(frameOffsets.size());
    for (u64 offset : frameOffsets)
        out.putU64(offset);
}

std::vector<u64>
deserializeIndex(ByteCursor &in)
{
    const u64 frames = in.getU64();
    // Validate the count against the payload before reserving: a
    // hostile count must fail with a diagnostic, not throw
    // std::length_error. Wrap-safe: 8 * frames could overflow.
    if (in.remaining() % 8 != 0 || frames != in.remaining() / 8)
        in.fail("declares ", frames, " frames but the payload holds ",
                in.remaining() / 8);
    std::vector<u64> offsets(in.ok() ? frames : 0);
    for (u64 &offset : offsets)
        offset = in.getU64();
    return offsets;
}

namespace
{

u32
footerCrc(u64 indexOffset)
{
    Crc32Stream crc;
    crc.putU32(static_cast<u32>(indexOffset));
    crc.putU32(static_cast<u32>(indexOffset >> 32));
    return crc.value();
}

} // namespace

void
serializeFooter(ByteBuffer &out, u64 indexOffset)
{
    out.putU64(indexOffset);
    out.putU32(footerCrc(indexOffset));
    for (u8 c : traceEndMagic)
        out.putU8(c);
}

u64
deserializeFooter(ByteCursor &in)
{
    const u64 indexOffset = in.getU64();
    const u32 crc = in.getU32();
    for (u8 expected : traceEndMagic)
        if (in.getU8() != expected)
            in.fail("bad end magic (truncated capture?)");
    if (crc != footerCrc(indexOffset))
        in.fail("footer CRC mismatch");
    return indexOffset;
}

} // namespace regpu
