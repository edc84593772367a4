/**
 * @file
 * Trace capture/replay subsystem tests.
 *
 * The headline contract: replaying a recorded trace through the
 * Simulator yields a SimResult bit-identical to the live-scene run it
 * was captured from — for every suite alias, under Baseline, RE and
 * TE. Plus: integrity (every flipped byte of a trace file must be
 * caught by verify), windowed replay, frame-range sharding, the
 * record/replay sweep helpers, and the strict ExperimentScale parser.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "scene/mesh_gen.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_scene.hh"
#include "trace/trace_writer.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** Temp file path unique to this test binary run. */
std::string
tmpTracePath(const std::string &tag)
{
    return testing::TempDir() + "regpu_" + tag + ".rgputrace";
}

/** Serialise a SimResult the way the CSV export sees it. */
std::string
csvOf(const SimResult &r)
{
    std::ostringstream os;
    writeCsvRow(os, r, false);
    return os.str();
}

/** Bit-exact FrameCommands comparison via the wire serializer. */
std::vector<u8>
frameBytes(const FrameCommands &cmds)
{
    ByteBuffer buf;
    serializeFrame(buf, 0, cmds);
    return buf.data();
}

/** A deliberately tiny scene so corruption sweeps stay cheap. */
std::unique_ptr<Scene>
makeTinyScene(const GpuConfig &config)
{
    auto scene = std::make_unique<Scene>("tiny", config);
    u32 tex = scene->addTexture(
        Texture(0, 8, 8, TexturePattern::Checker, 7));
    SceneObject quad;
    quad.name = "quad";
    quad.mesh = makeQuad(40, 40, 1.0f);
    quad.shader = ShaderKind::Textured;
    quad.textureId = static_cast<i32>(tex);
    quad.depthTest = false;
    quad.animate = [](u64 frame) {
        Pose p;
        p.position = {24.0f + frame, 28.0f, 0.4f};
        return p;
    };
    scene->addObject(std::move(quad));
    return scene;
}

GpuConfig
tinyConfig()
{
    GpuConfig config;
    config.scaleResolution(64, 48);
    return config;
}

std::vector<u8>
readFileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good());
    return std::vector<u8>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::vector<u8> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------------------------
// The headline claim: record -> verify -> replay is bit-identical to
// the live run, for every alias under Baseline / RE / TE.
// ---------------------------------------------------------------------------

TEST(TraceRoundTrip, BitIdenticalSimResultForAllAliasesAllTechniques)
{
    GpuConfig base;
    base.scaleResolution(192, 128);
    const u64 frames = 4;
    const u64 seed = 1;
    const Technique techniques[] = {Technique::Baseline,
                                    Technique::RenderingElimination,
                                    Technique::TransactionElimination};

    for (const auto &info : benchmarkSuite()) {
        auto live = makeBenchmark(info.alias, base, seed);
        const std::string path = tmpTracePath("rt_" + info.alias);
        captureTrace(*live, base, frames, seed, path);

        ASSERT_TRUE(verifyTraceFile(path).ok) << info.alias;

        TraceScene replay(path);
        EXPECT_EQ(replay.name(), info.alias);
        EXPECT_EQ(replay.replayFrames(), frames);

        for (Technique tech : techniques) {
            GpuConfig config = base;
            config.technique = tech;
            SimOptions options;
            options.frames = frames;

            Simulator liveSim(*live, config, options);
            SimResult liveResult = liveSim.run();
            Simulator replaySim(replay, config, options);
            SimResult replayResult = replaySim.run();

            EXPECT_EQ(csvOf(liveResult), csvOf(replayResult))
                << info.alias << " / " << techniqueName(tech);
            EXPECT_EQ(liveResult.stats.allCounters(),
                      replayResult.stats.allCounters())
                << info.alias << " / " << techniqueName(tech);
        }
        std::remove(path.c_str());
    }
}

TEST(TraceRoundTrip, FrameStreamsSurviveTheWireExactly)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("wire");
    captureTrace(*scene, config, 3, 7, path);

    TraceScene replay(path);
    ASSERT_EQ(replay.textures().size(), scene->textures().size());
    EXPECT_EQ(replay.textures()[0].texelData(),
              scene->textures()[0].texelData());
    EXPECT_EQ(replay.textures()[0].id(), scene->textures()[0].id());
    for (u64 f = 0; f < 3; f++)
        EXPECT_EQ(frameBytes(scene->emitFrame(f)),
                  frameBytes(replay.emitFrame(f)))
            << "frame " << f;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Integrity: every single flipped byte anywhere in the file must be
// detected by verify.
// ---------------------------------------------------------------------------

TEST(TraceIntegrity, VerifyCatchesEverySingleFlippedByte)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("flip");
    captureTrace(*scene, config, 2, 7, path);

    const std::vector<u8> original = readFileBytes(path);
    ASSERT_GT(original.size(), 0u);
    ASSERT_TRUE(verifyTraceFile(path).ok);

    std::vector<u8> mutated = original;
    u64 undetected = 0;
    for (std::size_t i = 0; i < original.size(); i++) {
        mutated[i] ^= 0x40;
        writeFileBytes(path, mutated);
        if (verifyTraceFile(path).ok)
            undetected++;
        mutated[i] = original[i];
    }
    EXPECT_EQ(undetected, 0u)
        << "some byte flips escaped verify in a "
        << original.size() << "-byte trace";

    writeFileBytes(path, original);
    EXPECT_TRUE(verifyTraceFile(path).ok);
    std::remove(path.c_str());
}

TEST(TraceIntegrity, ReaderFatalsOnCorruptFrameChunk)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("corrupt");
    captureTrace(*scene, config, 2, 7, path);

    // Flip one byte inside the first FRAM chunk's payload.
    TraceReader reader(path);
    const u64 target = reader.frameOffset(0) + traceChunkHeaderBytes + 9;
    std::vector<u8> bytes = readFileBytes(path);
    ASSERT_LT(target, bytes.size());
    bytes[target] ^= 0x01;
    writeFileBytes(path, bytes);

    EXPECT_FALSE(verifyTraceFile(path).ok);
    EXPECT_EXIT(
        {
            TraceScene broken(path);
            broken.emitFrame(0);
        },
        ::testing::ExitedWithCode(1), "CRC mismatch");

    // The runner pre-flight must reject the corrupt trace on the
    // caller thread (full-file verification), never on a worker.
    SimJob job;
    job.workload = "tiny";
    job.config = config;
    job.options.frames = 2;
    job.tracePath = path;
    EXPECT_EXIT(ParallelRunner(4).run({job, job}),
                ::testing::ExitedWithCode(1), "failed verification");
    std::remove(path.c_str());
}

TEST(TraceIntegrity, VerifySurvivesHugeCorruptChunkLength)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("hugelen");
    captureTrace(*scene, config, 2, 7, path);

    // Overwrite the first FRAM chunk's length field (8 bytes after the
    // u32 type) with ~0: the u64 bounds check must not wrap and the
    // walk must report corruption instead of throwing/aborting.
    TraceReader reader(path);
    const u64 lenOffset = reader.frameOffset(0) + 4;
    std::vector<u8> bytes = readFileBytes(path);
    ASSERT_LT(lenOffset + 8, bytes.size());
    for (int i = 0; i < 8; i++)
        bytes[lenOffset + i] = 0xff;
    writeFileBytes(path, bytes);

    const TraceVerifyReport report = verifyTraceFile(path);
    EXPECT_FALSE(report.ok);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Windowed replay + frame-range sharding.
// ---------------------------------------------------------------------------

TEST(TraceSharding, WindowViewRebasesFrames)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("window");
    captureTrace(*scene, config, 6, 7, path);

    TraceScene window(path, 2, 3);
    EXPECT_EQ(window.replayFrames(), 3u);
    EXPECT_EQ(window.firstFrame(), 2u);
    for (u64 f = 0; f < 3; f++)
        EXPECT_EQ(frameBytes(window.emitFrame(f)),
                  frameBytes(scene->emitFrame(2 + f)))
            << "window frame " << f;

    EXPECT_EXIT(window.emitFrame(3), ::testing::ExitedWithCode(1),
                "past the replay window");
    EXPECT_EXIT(TraceScene(path, 4, 5), ::testing::ExitedWithCode(1),
                "exceeds");
    std::remove(path.c_str());
}

TEST(TraceSharding, ShardsPartitionFramesAndMerge)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string path = tmpTracePath("shards");
    captureTrace(*scene, config, 7, 7, path);

    SimOptions options;
    options.frames = 0;  // all recorded frames
    std::vector<SimJob> jobs =
        buildReplayShards(path, config, options, 3);
    ASSERT_EQ(jobs.size(), 3u);
    u64 covered = 0, next = 0;
    for (const SimJob &job : jobs) {
        EXPECT_EQ(job.traceFirstFrame, next);
        EXPECT_EQ(job.tracePath, path);
        next += job.options.frames;
        covered += job.options.frames;
    }
    EXPECT_EQ(covered, 7u);

    std::vector<SimResult> results = ParallelRunner(3).run(jobs);
    SimResult merged = mergeResults(results);
    EXPECT_EQ(merged.frames, 7u);
    EXPECT_EQ(merged.tilesTotal, 7u * config.numTiles());

    // More shards than frames clamps to one frame per shard.
    EXPECT_EQ(buildReplayShards(path, config, options, 100).size(), 7u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sweep helpers: recordSweepTraces / retargetJobsToTraces.
// ---------------------------------------------------------------------------

TEST(TraceSweep, RetargetedJobsAdoptTraceMetaAndReplay)
{
    const std::string dir = testing::TempDir();
    std::vector<SimJob> jobs = buildSweepJobs(
        {"hop"}, {Technique::Baseline, Technique::RenderingElimination},
        160, 96, 3);
    recordSweepTraces(jobs, dir);

    // Retargeted jobs replay even when the request asks for another
    // resolution: the trace's recorded geometry wins.
    std::vector<SimJob> replayJobs = buildSweepJobs(
        {"hop"}, {Technique::Baseline, Technique::RenderingElimination},
        640, 480, 3);
    retargetJobsToTraces(replayJobs, dir);
    for (const SimJob &job : replayJobs) {
        EXPECT_EQ(job.config.screenWidth, 160u);
        EXPECT_EQ(job.config.screenHeight, 96u);
        EXPECT_EQ(job.tracePath, traceFilePath(dir, "hop"));
    }

    std::vector<SimResult> live = ParallelRunner(1).run(jobs);
    std::vector<SimResult> replayed = ParallelRunner(2).run(replayJobs);
    ASSERT_EQ(live.size(), replayed.size());
    for (std::size_t i = 0; i < live.size(); i++)
        EXPECT_EQ(csvOf(live[i]), csvOf(replayed[i])) << "job " << i;

    // Asking for more frames than the trace holds is fatal.
    std::vector<SimJob> tooMany = buildSweepJobs(
        {"hop"}, {Technique::Baseline}, 160, 96, 50);
    EXPECT_EXIT(retargetJobsToTraces(tooMany, dir),
                ::testing::ExitedWithCode(1), "holds only");
    std::remove(traceFilePath(dir, "hop").c_str());
}

// ---------------------------------------------------------------------------
// Satellites: unknown-alias guard and strict ExperimentScale parsing.
// ---------------------------------------------------------------------------

TEST(TraceSweep, UnknownAliasDiagnosticListsTheSuite)
{
    GpuConfig config;
    EXPECT_EXIT(makeBenchmark("frogger", config),
                ::testing::ExitedWithCode(1),
                "unknown benchmark alias: frogger.*valid aliases:.*"
                "ccs.*tib");
    SimJob bad;
    bad.workload = "frogger";
    EXPECT_EXIT(ParallelRunner(1).run({bad}),
                ::testing::ExitedWithCode(1), "valid aliases");
}

TEST(ExperimentScaleArgs, StrictParsingRejectsTypos)
{
    auto parse = [](std::vector<const char *> args) {
        args.insert(args.begin(), "bench");
        return ExperimentScale::fromArgs(
            static_cast<int>(args.size()),
            const_cast<char **>(args.data()));
    };

    ExperimentScale s = parse({"--fast", "--frames", "9", "--jobs", "2"});
    EXPECT_EQ(s.screenWidth, 400u);
    EXPECT_EQ(s.frames, 9u);
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(parse({"--record-dir", "/tmp/t"}).recordDir, "/tmp/t");
    EXPECT_EQ(parse({"--replay-dir", "/tmp/t"}).replayDir, "/tmp/t");

    EXPECT_EXIT(parse({"--frmes", "50"}), ::testing::ExitedWithCode(1),
                "unknown flag: --frmes.*valid flags");
    EXPECT_EXIT(parse({"--frames"}), ::testing::ExitedWithCode(1),
                "expects a value");
    EXPECT_EXIT(parse({"--frames", "5x"}), ::testing::ExitedWithCode(1),
                "expects a number");
    EXPECT_EXIT(parse({"--record-dir"}), ::testing::ExitedWithCode(1),
                "expects a value");
}
