#include "trace/trace_writer.hh"

#include "common/config.hh"
#include "scene/frame_source.hh"

namespace regpu
{

TraceWriter::TraceWriter(const std::string &path, const TraceMeta &meta)
    : out(path, std::ios::binary | std::ios::trunc), path_(path),
      meta_(meta)
{
    if (!out)
        fatal("trace: cannot open for writing: ", path);
    out.write(reinterpret_cast<const char *>(traceMagic),
              sizeof(traceMagic));
    offset_ = sizeof(traceMagic);

    ByteBuffer payload;
    serializeMeta(payload, meta_);
    writeChunk(traceChunkMeta, payload.data());
}

TraceWriter::~TraceWriter()
{
    // warnOnce: a sweep abandoning a whole directory of writers (e.g.
    // when unwinding from an error) would otherwise repeat this line
    // per trace; the first path is enough to locate the bug.
    if (!finished)
        warnOnce("trace: writer for ", path_,
                 " destroyed without finish(); file is incomplete");
}

u64
TraceWriter::writeChunk(u32 type, const std::vector<u8> &payload)
{
    const u64 chunkOffset = offset_;
    const u32 crc = traceChunkCrc(type, payload);

    ByteBuffer header;
    header.putU32(type);
    header.putU64(payload.size());
    header.putU32(crc);
    out.write(reinterpret_cast<const char *>(header.data().data()),
              static_cast<std::streamsize>(header.data().size()));
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out)
        fatal("trace: write failed: ", path_);
    offset_ += traceChunkHeaderBytes + payload.size();
    return chunkOffset;
}

void
TraceWriter::addTexture(const Texture &tex)
{
    REGPU_ASSERT(!finished, "trace writer already finished");
    if (!frameOffsets.empty())
        fatal("trace: textures must precede frames in ", path_);
    if (texturesWritten >= meta_.textureCount)
        fatal("trace: more textures than META declared (",
              meta_.textureCount, ") in ", path_);
    ByteBuffer payload;
    serializeTexture(payload, tex);
    writeChunk(traceChunkTexture, payload.data());
    texturesWritten++;
}

void
TraceWriter::addFrame(const FrameCommands &cmds)
{
    REGPU_ASSERT(!finished, "trace writer already finished");
    if (texturesWritten != meta_.textureCount)
        fatal("trace: ", texturesWritten, " of ", meta_.textureCount,
              " textures written before first frame in ", path_);
    if (frameOffsets.size() >= meta_.frames)
        fatal("trace: more frames than META declared (", meta_.frames,
              ") in ", path_);
    ByteBuffer payload;
    serializeFrame(payload, frameOffsets.size(), cmds);
    frameOffsets.push_back(writeChunk(traceChunkFrame, payload.data()));
}

void
TraceWriter::finish()
{
    REGPU_ASSERT(!finished, "trace writer already finished");
    if (texturesWritten != meta_.textureCount
        || frameOffsets.size() != meta_.frames)
        fatal("trace: wrote ", texturesWritten, "/", meta_.textureCount,
              " textures and ", frameOffsets.size(), "/", meta_.frames,
              " frames declared by META in ", path_);

    ByteBuffer payload;
    serializeIndex(payload, frameOffsets);
    const u64 indexOffset = writeChunk(traceChunkIndex, payload.data());

    ByteBuffer footer;
    serializeFooter(footer, indexOffset);
    out.write(reinterpret_cast<const char *>(footer.data().data()),
              static_cast<std::streamsize>(footer.data().size()));
    offset_ += footer.data().size();
    out.close();
    if (!out)
        fatal("trace: close failed: ", path_);
    finished = true;
}

void
captureTrace(const FrameSource &source, const GpuConfig &config,
             u64 frames, u64 seed, const std::string &path)
{
    TraceMeta meta;
    meta.name = source.name();
    meta.seed = seed;
    meta.frames = frames;
    meta.screenWidth = config.screenWidth;
    meta.screenHeight = config.screenHeight;
    meta.tileWidth = config.tileWidth;
    meta.tileHeight = config.tileHeight;
    meta.textureCount = static_cast<u32>(source.textures().size());

    TraceWriter writer(path, meta);
    for (const Texture &tex : source.textures())
        writer.addTexture(tex);
    for (u64 f = 0; f < frames; f++)
        writer.addFrame(source.emitFrame(f));
    writer.finish();
}

std::string
traceFilePath(const std::string &dir, const std::string &alias)
{
    if (dir.empty() || dir.back() == '/')
        return dir + alias + ".rgputrace";
    return dir + "/" + alias + ".rgputrace";
}

} // namespace regpu
