/**
 * @file
 * TraceReader: random-access reader for the trace_format.hh files.
 *
 * open() reads the magic, footer, frame index table and META chunk up
 * front — O(trace header), not O(frames) — after which any frame is
 * one seek away via the index table. Every chunk consumed is CRC
 * checked before its payload is parsed; any problem is fatal() on the
 * load path.
 *
 * verifyTraceFile() is the diagnostic sibling: it never fatal()s. It
 * walks the whole file with the reader's own chunk reader, footer
 * parser and payload deserializers, so the reader rejects nothing
 * that verifies, and returns a report — this is what `trace_cli
 * verify` prints.
 */

#ifndef REGPU_TRACE_TRACE_READER_HH
#define REGPU_TRACE_TRACE_READER_HH

#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_format.hh"

namespace regpu
{

/** Seekable, CRC-checking reader over one trace file. */
class TraceReader
{
  public:
    /** Open @p path and load footer, index and META. fatal() on any
     *  structural or CRC problem in those. */
    explicit TraceReader(const std::string &path);

    const TraceMeta &meta() const { return meta_; }
    const std::string &path() const { return path_; }
    u64 frameCount() const { return static_cast<u64>(frameOffsets.size()); }
    u64 fileBytes() const { return fileBytes_; }

    /** File offset of frame @p index's FRAM chunk (the index table). */
    u64
    frameOffset(u64 index) const
    {
        REGPU_ASSERT(index < frameOffsets.size(), "frame out of range");
        return frameOffsets[index];
    }

    /** Parse all TEXT chunks, in trace order. */
    std::vector<Texture> readTextures() const;

    /** Seek to and parse frame @p index (O(1) via the index table). */
    FrameCommands readFrame(u64 index) const;

  private:
    /** Read one chunk at @p offset, demand @p expectType, CRC check,
     *  return the payload. */
    std::vector<u8> readChunk(u64 offset, u32 expectType) const;

    mutable std::ifstream in;
    std::string path_;
    TraceMeta meta_;
    std::vector<u64> frameOffsets;
    u64 firstTextureOffset = 0;  //!< offset of the chunk after META
    u64 fileBytes_ = 0;
};

/** Outcome of a full-file integrity walk. */
struct TraceVerifyReport
{
    bool ok = false;
    std::vector<std::string> errors;  //!< empty iff ok
    u64 fileBytes = 0;
    u64 chunks = 0;     //!< chunks whose CRC was checked
    u64 textures = 0;
    u64 frames = 0;
    TraceMeta meta;     //!< valid when the META chunk parsed
};

/**
 * Walk @p path end to end without ever fatal()ing: magic, every chunk
 * header and CRC, every META, TEXT, FRAM and INDX payload through the
 * reader's deserializers, chunk ordering, META consistency,
 * index-table agreement with the observed FRAM offsets, and the
 * footer. Any single flipped byte in the file surfaces as at least
 * one error, and nothing that verifies makes the reader fatal().
 */
TraceVerifyReport verifyTraceFile(const std::string &path);

} // namespace regpu

#endif // REGPU_TRACE_TRACE_READER_HH
