/**
 * @file
 * TraceWriter: records frame traces in the format of trace_format.hh.
 *
 * Usage (what captureTrace() does):
 *
 *     TraceWriter w(path, meta);          // magic + META chunk
 *     for each texture: w.addTexture(t);  // TEXT chunks
 *     for each frame:   w.addFrame(c);    // FRAM chunks
 *     w.finish();                         // INDX chunk + footer
 *
 * The writer is strict: texture and frame counts must match the META
 * declaration, and finish() must be called exactly once — anything
 * else is a programming error and fatal()s rather than producing a
 * silently unreadable file.
 */

#ifndef REGPU_TRACE_TRACE_WRITER_HH
#define REGPU_TRACE_TRACE_WRITER_HH

#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_format.hh"

namespace regpu
{

class FrameSource;
struct GpuConfig;

/** Streams one trace file chunk by chunk. */
class TraceWriter
{
  public:
    /** Open @p path and write magic + META. fatal() on I/O failure. */
    TraceWriter(const std::string &path, const TraceMeta &meta);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one TEXT chunk (call meta.textureCount times, before
     *  any frame). */
    void addTexture(const Texture &tex);

    /** Append one FRAM chunk; frames are indexed in call order. */
    void addFrame(const FrameCommands &cmds);

    /** Write the INDX chunk and footer, then close the file. */
    void finish();

  private:
    u64 writeChunk(u32 type, const std::vector<u8> &payload);

    std::ofstream out;
    std::string path_;
    TraceMeta meta_;
    std::vector<u64> frameOffsets;
    u64 texturesWritten = 0;
    u64 offset_ = 0;
    bool finished = false;
};

/**
 * Capture a full trace from any FrameSource: textures first, then
 * @p frames frames emitted in order. @p config supplies the target
 * resolution and tile grid recorded into META; @p seed is provenance
 * metadata (the content seed the source was built from).
 */
void captureTrace(const FrameSource &source, const GpuConfig &config,
                  u64 frames, u64 seed, const std::string &path);

/** Canonical trace file name for a workload alias inside @p dir. */
std::string traceFilePath(const std::string &dir,
                          const std::string &alias);

} // namespace regpu

#endif // REGPU_TRACE_TRACE_WRITER_HH
