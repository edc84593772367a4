/**
 * @file
 * TraceScene: a FrameSource that replays a recorded trace.
 *
 * Drop-in replacement for a live Scene anywhere the Simulator (or a
 * --replay-dir sweep) consumes one: textures come from the trace's
 * TEXT chunks, emitFrame() seeks the requested FRAM chunk through the
 * index table.
 * Replaying the full trace yields a SimResult bit-identical to the
 * live-scene run it was captured from.
 *
 * A TraceScene can also expose a *window* [firstFrame, firstFrame +
 * frameCount) of the trace, re-based so emitFrame(0) returns the
 * window's first frame: this is how the parallel runner shards one
 * replay across workers by frame range (each shard seeks directly to
 * its window — O(1) via the index table — never touching the frames
 * of other shards).
 *
 * Not thread-safe: each worker opens its own TraceScene (the reader
 * owns a seeking ifstream).
 */

#ifndef REGPU_TRACE_TRACE_SCENE_HH
#define REGPU_TRACE_TRACE_SCENE_HH

#include <string>
#include <vector>

#include "scene/frame_source.hh"
#include "trace/trace_reader.hh"

namespace regpu
{

/** Replays a trace file as a FrameSource. */
class TraceScene : public FrameSource
{
  public:
    /**
     * Open @p path and load the texture set.
     * @param firstFrame  first trace frame of the replay window
     * @param frameCount  window length; 0 means "to the end of trace"
     */
    explicit TraceScene(const std::string &path, u64 firstFrame = 0,
                        u64 frameCount = 0);

    const std::string &name() const override { return reader.meta().name; }
    const std::vector<Texture> &textures() const override
    { return textures_; }

    /** Window-relative frame fetch: reads trace frame
     *  firstFrame + @p frame. fatal() past the window end. */
    FrameCommands emitFrame(u64 frame) const override;

    const TraceMeta &meta() const { return reader.meta(); }

    /** Frames available in this replay window. */
    u64 replayFrames() const { return frames_; }

    /** First trace frame of the window. */
    u64 firstFrame() const { return firstFrame_; }

  private:
    TraceReader reader;
    std::vector<Texture> textures_;
    u64 firstFrame_;
    u64 frames_;
};

} // namespace regpu

#endif // REGPU_TRACE_TRACE_SCENE_HH
