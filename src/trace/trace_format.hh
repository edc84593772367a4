/**
 * @file
 * The regpu frame-trace binary format (version 1).
 *
 * A trace is the simulator's equivalent of a gem5 trace-driven
 * frontend input: the fully-resolved per-frame command streams of one
 * workload, recorded once and replayed without paying scene/mesh
 * generation. Replaying a trace through the Simulator yields a
 * SimResult bit-identical to the live-scene run it was captured from.
 *
 * File layout (all integers little-endian, floats as IEEE-754 bit
 * patterns):
 *
 *     [magic "RGPUTRC1"]                            8 bytes
 *     [META chunk]                                  workload metadata
 *     [TEXT chunk] x textureCount                   texture images
 *     [FRAM chunk] x frameCount                     one per frame
 *     [INDX chunk]                                  frame index table
 *     [footer]                                      20 bytes
 *
 * Chunk wire format:
 *
 *     u32 type        fourcc ('META' | 'TEXT' | 'FRAM' | 'INDX')
 *     u64 length      payload bytes
 *     u32 crc         CRC-32 over type || length || payload
 *     u8  payload[length]
 *
 * The CRC uses the repository-wide convention F(M) = M * x^32 mod G
 * (crc/crc32.hh; generator 0x04C11DB7, zero init, no final XOR) and
 * covers the header fields as well as the payload, so a single flipped
 * byte anywhere in a chunk — including its type, length or the stored
 * CRC itself — is detectable.
 *
 * Footer wire format (fixed 20 bytes at end of file):
 *
 *     u64 indexOffset  file offset of the INDX chunk
 *     u32 crc          CRC-32 over the 8 indexOffset bytes
 *     u8  endMagic[8]  "RGPUEND1"
 *
 * The INDX chunk holds `u64 frameCount` followed by one u64 file
 * offset per FRAM chunk, enabling O(1) seek to any frame — this is
 * what lets the parallel runner shard a replay by frame range.
 */

#ifndef REGPU_TRACE_TRACE_FORMAT_HH
#define REGPU_TRACE_TRACE_FORMAT_HH

#include <bit>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "gpu/texture.hh"
#include "gpu/vertex.hh"

namespace regpu
{

/** Leading file magic: "RGPUTRC1" (the trailing 1 is the version). */
constexpr u8 traceMagic[8] = {'R', 'G', 'P', 'U', 'T', 'R', 'C', '1'};

/** Trailing file magic: "RGPUEND1". */
constexpr u8 traceEndMagic[8] = {'R', 'G', 'P', 'U', 'E', 'N', 'D', '1'};

/** Chunk fourcc codes (stored little-endian, first char in low byte). */
constexpr u32
traceFourcc(char a, char b, char c, char d)
{
    return static_cast<u32>(static_cast<u8>(a))
        | (static_cast<u32>(static_cast<u8>(b)) << 8)
        | (static_cast<u32>(static_cast<u8>(c)) << 16)
        | (static_cast<u32>(static_cast<u8>(d)) << 24);
}

constexpr u32 traceChunkMeta = traceFourcc('M', 'E', 'T', 'A');
constexpr u32 traceChunkTexture = traceFourcc('T', 'E', 'X', 'T');
constexpr u32 traceChunkFrame = traceFourcc('F', 'R', 'A', 'M');
constexpr u32 traceChunkIndex = traceFourcc('I', 'N', 'D', 'X');

/** Chunk header bytes on the wire: type(4) + length(8) + crc(4). */
constexpr u64 traceChunkHeaderBytes = 16;

/** Footer bytes on the wire: indexOffset(8) + crc(4) + endMagic(8). */
constexpr u64 traceFooterBytes = 20;

/** Workload metadata carried by the META chunk. */
struct TraceMeta
{
    std::string name;      //!< workload alias / scene name
    u64 seed = 1;          //!< content seed the capture used
    u64 frames = 0;        //!< FRAM chunk count
    u32 screenWidth = 0;   //!< resolution the capture targeted
    u32 screenHeight = 0;
    u32 tileWidth = 0;     //!< tile grid of the capture config
    u32 tileHeight = 0;
    u32 textureCount = 0;  //!< TEXT chunk count
};

/**
 * Growable little-endian byte sink for chunk payload assembly.
 */
class ByteBuffer
{
  public:
    void putU8(u8 v) { bytes_.push_back(v); }
    void putU32(u32 v) { putLe(v, 4); }
    void putU64(u64 v) { putLe(v, 8); }
    void putI32(i32 v) { putU32(static_cast<u32>(v)); }
    void putF32(float f) { putU32(std::bit_cast<u32>(f)); }

    /** Length-prefixed string (u32 length + raw bytes). */
    void
    putString(const std::string &s)
    {
        putU32(static_cast<u32>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::vector<u8> &data() const { return bytes_; }

  private:
    void
    putLe(u64 v, int bytes)
    {
        for (int i = 0; i < bytes; i++)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    std::vector<u8> bytes_;
};

/**
 * Bounds-checked little-endian reader over a chunk payload. It never
 * fatal()s: the first problem, an overrun or a field a deserializer
 * rejects through fail(), is kept in error(), and every later read
 * returns zero. TraceReader turns that error into fatal() while
 * verifyTraceFile() reports it, so both run the same parser.
 */
class ByteCursor
{
  public:
    explicit ByteCursor(std::span<const u8> bytes) : buf(bytes) {}

    u8 getU8() { return static_cast<u8>(getLe(1)); }
    u32 getU32() { return static_cast<u32>(getLe(4)); }
    u64 getU64() { return getLe(8); }
    i32 getI32() { return static_cast<i32>(getU32()); }
    float getF32() { return std::bit_cast<float>(getU32()); }

    std::string
    getString()
    {
        u32 len = getU32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(buf.data() + pos_),
                      len);
        pos_ += len;
        return s;
    }

    std::size_t remaining() const { return buf.size() - pos_; }

    bool ok() const { return error_.empty(); }

    /** The first problem met; empty while ok(). */
    const std::string &error() const { return error_; }

    /** Keep @p args as the error unless one is already kept, and skip
     *  the rest of the payload. */
    template <typename... Args>
    void
    fail(Args &&...args)
    {
        if (error_.empty())
            error_ = log_detail::concat(args...);
        pos_ = buf.size();
    }

  private:
    u64
    getLe(std::size_t n)
    {
        if (!need(n))
            return 0;
        u64 v = 0;
        for (std::size_t i = 0; i < n; i++)
            v |= static_cast<u64>(buf[pos_ + i]) << (8 * i);
        pos_ += n;
        return v;
    }

    bool
    need(std::size_t n)
    {
        if (buf.size() - pos_ >= n)
            return true;
        fail("truncated payload (need ", n, " bytes, have ",
             buf.size() - pos_, ")");
        return false;
    }

    std::span<const u8> buf;
    std::size_t pos_ = 0;
    std::string error_;
};

/** CRC-32 of a chunk as stored on the wire (header fields + payload). */
u32 traceChunkCrc(u32 type, std::span<const u8> payload);

// --- Payload (de)serializers -----------------------------------------------
// Shared by TraceWriter, TraceReader and verifyTraceFile() so no two
// of them can diverge. All of these round-trip bit-exactly (floats
// travel as raw IEEE-754 bit patterns). A deserializer reports a
// truncated or hostile payload through the cursor's error; its return
// value is meaningful only while the cursor is ok().

void serializeMeta(ByteBuffer &out, const TraceMeta &meta);
TraceMeta deserializeMeta(ByteCursor &in);

void serializeTexture(ByteBuffer &out, const Texture &tex);
/** Empty iff the cursor holds an error. */
std::optional<Texture> deserializeTexture(ByteCursor &in);

void serializeFrame(ByteBuffer &out, u64 frameIndex,
                    const FrameCommands &cmds);
/** Parse the FRAM payload of frame @p frameIndex of a trace holding
 *  @p textureCount textures: the stored index must match, and a draw
 *  that samples a texture must name one of them. */
FrameCommands deserializeFrame(ByteCursor &in, u64 frameIndex,
                               u32 textureCount);

/** INDX payload: the FRAM chunk offsets, in frame order. */
void serializeIndex(ByteBuffer &out, std::span<const u64> frameOffsets);
std::vector<u64> deserializeIndex(ByteCursor &in);

/** Footer: the INDX offset, its CRC and the end magic. */
void serializeFooter(ByteBuffer &out, u64 indexOffset);
u64 deserializeFooter(ByteCursor &in);

} // namespace regpu

#endif // REGPU_TRACE_TRACE_FORMAT_HH
