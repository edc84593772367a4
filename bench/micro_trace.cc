/**
 * @file
 * micro_trace: replay-vs-generate throughput of the trace subsystem.
 *
 * Measures, per workload alias, the cost of producing one frame's
 * FrameCommands (a) live, through Scene::emitFrame (mesh copies,
 * animators, matrix math), versus (b) replayed, through
 * TraceScene::emitFrame (one indexed seek + CRC check + parse). Also
 * reports the trace's on-disk bytes/frame, pinning the I/O cost the
 * replay path trades for the generation cost it skips.
 *
 * Usage: micro_trace [--fast|--full] [--frames N] [--jobs N]
 *        [--record-dir DIR] [--replay-dir DIR]
 *        (ExperimentScale flags; resolution scales scene content.
 *        --record-dir keeps the captures there instead of a deleted
 *        temp file; --replay-dir times existing traces, skipping the
 *        capture step — the trace must match the requested frames.)
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "trace/trace_scene.hh"
#include "trace/trace_writer.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** Consume a command stream so the compiler cannot drop the work. */
u64
sinkFrame(const FrameCommands &cmds)
{
    u64 sum = cmds.draws.size();
    for (const DrawCall &d : cmds.draws)
        sum += d.vertices.size();
    return sum;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    ExperimentScale scale = ExperimentScale::fromArgs(argc, argv);
    GpuConfig config;
    config.scaleResolution(scale.screenWidth, scale.screenHeight);
    const u64 frames = scale.frames;
    const int reps = 3;  //!< passes over the frame range per side

    std::printf("== micro_trace: generate vs replay, %llu frames x %d "
                "passes, %ux%u ==\n",
                static_cast<unsigned long long>(frames), reps,
                config.screenWidth, config.screenHeight);
    std::printf("%-10s %14s %14s %9s %12s\n", "workload",
                "generate f/s", "replay f/s", "speedup", "bytes/frame");

    u64 sink = 0;
    for (const auto &info : benchmarkSuite()) {
        auto scene = makeBenchmark(info.alias, config, 1);
        std::string path;
        bool keepTrace = false;
        if (!scale.replayDir.empty()) {
            path = traceFilePath(scale.replayDir, info.alias);
            keepTrace = true;
        } else if (!scale.recordDir.empty()) {
            path = traceFilePath(scale.recordDir, info.alias);
            keepTrace = true;
            captureTrace(*scene, config, frames, 1, path);
        } else {
            path = "/tmp/micro_trace_" + info.alias + ".rgputrace";
            captureTrace(*scene, config, frames, 1, path);
        }
        TraceScene replay(path);
        if (replay.replayFrames() < frames)
            fatal("trace ", path, " holds only ", replay.replayFrames(),
                  " frames, bench needs ", frames);

        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; r++)
            for (u64 f = 0; f < frames; f++)
                sink += sinkFrame(scene->emitFrame(f));
        const double genSec = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; r++)
            for (u64 f = 0; f < frames; f++)
                sink += sinkFrame(replay.emitFrame(f));
        const double repSec = secondsSince(t0);

        const double n = static_cast<double>(reps)
            * static_cast<double>(frames);
        // Frame-payload bytes only: from the first FRAM chunk to the
        // end of file (textures amortise across the whole run).
        TraceReader reader(path);
        const double bytesPerFrame = frames
            ? static_cast<double>(reader.fileBytes()
                                  - reader.frameOffset(0))
                / static_cast<double>(frames)
            : 0.0;
        std::printf("%-10s %14.0f %14.0f %8.2fx %12.0f\n",
                    info.alias.c_str(), n / genSec, n / repSec,
                    genSec / repSec, bytesPerFrame);
        if (!keepTrace)
            std::remove(path.c_str());
    }
    std::printf("(sink %llu)\n", static_cast<unsigned long long>(sink));
    return 0;
}
