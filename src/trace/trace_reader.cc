#include "trace/trace_reader.hh"

#include <algorithm>

namespace regpu
{

namespace
{

/** Printable fourcc for error messages. */
std::string
fourccName(u32 type)
{
    std::string s;
    for (int i = 0; i < 4; i++) {
        char c = static_cast<char>(type >> (8 * i));
        s += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return s;
}

/** "FRAM chunk at offset 123": how every diagnostic names a chunk. */
std::string
chunkAt(u32 type, u64 offset)
{
    return log_detail::concat(fourccName(type), " chunk at offset ", offset);
}

/** Read @p bytes.size() bytes at @p offset; false on a short read. */
bool
readAt(std::ifstream &in, u64 offset, std::span<u8> bytes)
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(in);
}

/** One chunk as readTraceChunk() found it. */
struct TraceChunk
{
    u32 type = 0;
    std::vector<u8> payload;
    std::string error;    //!< first problem; empty iff the chunk is sound
    bool framed = false;  //!< header and payload were read, so the next
                          //!< chunk follows even when the CRC failed
};

/**
 * Read the chunk at @p offset, which must end by @p end (the footer):
 * header, a known type, a wrap-safe length, the payload and its CRC.
 */
TraceChunk
readTraceChunk(std::ifstream &in, u64 offset, u64 end)
{
    TraceChunk chunk;
    u8 header[traceChunkHeaderBytes];
    if (offset > end || end - offset < traceChunkHeaderBytes
        || !readAt(in, offset, header)) {
        chunk.error = log_detail::concat("no chunk header fits at offset ",
                                         offset, " before the footer");
        return chunk;
    }
    ByteCursor hc(header);
    chunk.type = hc.getU32();
    const u64 length = hc.getU64();
    const u32 storedCrc = hc.getU32();
    const std::string where = chunkAt(chunk.type, offset);
    if (chunk.type != traceChunkMeta && chunk.type != traceChunkTexture
        && chunk.type != traceChunkFrame && chunk.type != traceChunkIndex)
        chunk.error = log_detail::concat("unknown chunk type '",
                                         fourccName(chunk.type),
                                         "' at offset ", offset);
    // Compare against the remaining bytes, not offset + length: a
    // corrupted length near 2^64 would wrap the sum past the check
    // and reach the payload allocation.
    else if (length > end - offset - traceChunkHeaderBytes)
        chunk.error = where + " overruns the file";
    if (!chunk.error.empty())
        return chunk;

    chunk.payload.resize(length);
    if (!readAt(in, offset + traceChunkHeaderBytes, chunk.payload)) {
        chunk.error = "short read in " + where;
        return chunk;
    }
    chunk.framed = true;
    if (traceChunkCrc(chunk.type, chunk.payload) != storedCrc)
        chunk.error = "CRC mismatch in " + where;
    return chunk;
}

/** fatal() with the error @p payload kept for the chunk at @p offset. */
[[noreturn]] void
fatalPayload(const ByteCursor &payload, u32 type, u64 offset,
             const std::string &path)
{
    fatal("trace: ", chunkAt(type, offset), ": ", payload.error(), " in ",
          path);
}

} // namespace

TraceReader::TraceReader(const std::string &path)
    : in(path, std::ios::binary | std::ios::ate), path_(path)
{
    if (!in)
        fatal("trace: cannot open: ", path);

    fileBytes_ = static_cast<u64>(in.tellg());
    if (fileBytes_ < sizeof(traceMagic) + traceFooterBytes)
        fatal("trace: file too small to be a trace: ", path);

    u8 magic[sizeof(traceMagic)];
    if (!readAt(in, 0, magic)
        || !std::equal(magic, magic + sizeof(magic), traceMagic))
        fatal("trace: bad magic (not a regpu trace?): ", path);

    u8 footer[traceFooterBytes];
    if (!readAt(in, fileBytes_ - traceFooterBytes, footer))
        fatal("trace: cannot read footer: ", path);
    ByteCursor fc(footer);
    const u64 indexOffset = deserializeFooter(fc);
    if (!fc.ok())
        fatal("trace: ", fc.error(), " in ", path);

    const std::vector<u8> index = readChunk(indexOffset, traceChunkIndex);
    ByteCursor ic(index);
    frameOffsets = deserializeIndex(ic);
    if (!ic.ok())
        fatalPayload(ic, traceChunkIndex, indexOffset, path);

    // META is always the first chunk, right after the magic.
    const std::vector<u8> metaPayload =
        readChunk(sizeof(traceMagic), traceChunkMeta);
    ByteCursor mc(metaPayload);
    meta_ = deserializeMeta(mc);
    if (!mc.ok())
        fatalPayload(mc, traceChunkMeta, sizeof(traceMagic), path);
    firstTextureOffset =
        sizeof(traceMagic) + traceChunkHeaderBytes + metaPayload.size();

    if (meta_.frames != frameOffsets.size())
        fatal("trace: META declares ", meta_.frames,
              " frames but index has ", frameOffsets.size(), ": ", path);
}

std::vector<u8>
TraceReader::readChunk(u64 offset, u32 expectType) const
{
    TraceChunk chunk =
        readTraceChunk(in, offset, fileBytes_ - traceFooterBytes);
    if (!chunk.error.empty())
        fatal("trace: ", chunk.error, " in ", path_);
    if (chunk.type != expectType)
        fatal("trace: expected ", fourccName(expectType), " chunk at ",
              offset, ", found ", fourccName(chunk.type), " in ", path_);
    return std::move(chunk.payload);
}

std::vector<Texture>
TraceReader::readTextures() const
{
    // No reserve: textureCount is file-controlled and an absurd value
    // should fail at the first bad chunk read, not in the allocator.
    std::vector<Texture> textures;
    u64 offset = firstTextureOffset;
    for (u32 t = 0; t < meta_.textureCount; t++) {
        const std::vector<u8> payload = readChunk(offset, traceChunkTexture);
        ByteCursor pc(payload);
        std::optional<Texture> tex = deserializeTexture(pc);
        if (!tex)
            fatalPayload(pc, traceChunkTexture, offset, path_);
        textures.push_back(std::move(*tex));
        offset += traceChunkHeaderBytes + payload.size();
    }
    return textures;
}

FrameCommands
TraceReader::readFrame(u64 index) const
{
    if (index >= frameOffsets.size())
        fatal("trace: frame ", index, " out of range (trace has ",
              frameOffsets.size(), " frames): ", path_);
    const std::vector<u8> payload =
        readChunk(frameOffsets[index], traceChunkFrame);
    ByteCursor pc(payload);
    FrameCommands cmds = deserializeFrame(pc, index, meta_.textureCount);
    if (!pc.ok())
        fatalPayload(pc, traceChunkFrame, frameOffsets[index], path_);
    return cmds;
}

TraceVerifyReport
verifyTraceFile(const std::string &path)
{
    TraceVerifyReport report;
    auto fail = [&](const auto &...parts) {
        report.errors.push_back(log_detail::concat(parts...));
    };

    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) {
        fail("cannot open file");
        return report;
    }
    report.fileBytes = static_cast<u64>(f.tellg());
    if (report.fileBytes < sizeof(traceMagic) + traceFooterBytes) {
        fail("file too small to be a trace");
        return report;
    }

    u8 magic[sizeof(traceMagic)];
    if (!readAt(f, 0, magic)
        || !std::equal(magic, magic + sizeof(magic), traceMagic))
        fail("bad leading magic");

    // Walk every chunk from the magic to the footer, parsing each
    // payload whose CRC holds exactly as TraceReader would.
    const u64 end = report.fileBytes - traceFooterBytes;
    u64 offset = sizeof(traceMagic);
    u64 indexOffset = 0;
    std::vector<u64> frameOffsets;
    bool metaSeen = false;
    bool metaParsed = false;
    while (offset < end) {
        TraceChunk chunk = readTraceChunk(f, offset, end);
        if (!chunk.error.empty())
            fail(chunk.error);
        if (!chunk.framed)
            break;
        report.chunks++;
        const bool crcOk = chunk.error.empty();
        ByteCursor pc(chunk.payload);

        if (chunk.type == traceChunkMeta) {
            if (report.chunks != 1)
                fail("META chunk is not first");
            metaSeen = true;
            if (crcOk) {
                report.meta = deserializeMeta(pc);
                metaParsed = pc.ok();
            }
        } else if (chunk.type == traceChunkTexture) {
            report.textures++;
            if (!frameOffsets.empty())
                fail("TEXT chunk after the first FRAM chunk");
            if (crcOk)
                deserializeTexture(pc);
        } else if (chunk.type == traceChunkFrame) {
            // Every TEXT chunk precedes the first FRAM and META must
            // declare exactly that many, so on a trace that verifies
            // this is META's textureCount.
            if (crcOk)
                deserializeFrame(pc, frameOffsets.size(),
                                 static_cast<u32>(report.textures));
            frameOffsets.push_back(offset);
        } else {
            indexOffset = offset;
            if (offset + traceChunkHeaderBytes + chunk.payload.size()
                != end)
                fail("INDX chunk is not the last chunk");
            // Cross-check the table against the FRAM chunks actually
            // seen on the walk.
            if (crcOk) {
                const std::vector<u64> table = deserializeIndex(pc);
                const auto wrong =
                    std::mismatch(table.begin(), table.end(),
                                  frameOffsets.begin(), frameOffsets.end());
                if (pc.ok() && table.size() != frameOffsets.size())
                    fail("INDX frame count disagrees with FRAM chunks");
                else if (pc.ok() && wrong.first != table.end())
                    fail("INDX entry ", wrong.first - table.begin(),
                         " points at the wrong offset");
            }
        }
        if (!pc.ok())
            fail(chunkAt(chunk.type, offset), ": ", pc.error());
        offset += traceChunkHeaderBytes + chunk.payload.size();
    }
    report.frames = frameOffsets.size();

    if (!metaSeen) {
        fail("no META chunk found");
    } else if (metaParsed) {
        if (report.meta.frames != report.frames)
            fail("META declares ", report.meta.frames, " frames, file has ",
                 report.frames);
        if (report.meta.textureCount != report.textures)
            fail("META declares ", report.meta.textureCount,
                 " textures, file has ", report.textures);
    }

    u8 footer[traceFooterBytes];
    if (!readAt(f, end, footer)) {
        fail("cannot read footer");
    } else {
        ByteCursor fc(footer);
        const u64 footerIndexOffset = deserializeFooter(fc);
        if (!fc.ok())
            fail(fc.error());
        else if (footerIndexOffset != indexOffset)
            fail("footer does not point at the INDX chunk");
    }

    report.ok = report.errors.empty();
    return report;
}

} // namespace regpu
