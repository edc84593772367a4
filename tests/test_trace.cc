/**
 * @file
 * Trace capture/replay subsystem tests.
 *
 * The headline contract: replaying a recorded trace through the
 * Simulator yields a SimResult bit-identical to the live-scene run it
 * was captured from — for every suite alias, under Baseline, RE and
 * TE. Plus: integrity (every flipped byte of a trace file, and every
 * CRC-valid hostile payload, must be caught by verify), windowed
 * replay, frame-range sharding, the record/replay sweep helpers, and
 * the strict ExperimentScale parser.
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

TEST(TraceIntegrity, CursorKeepsItsFirstError)
{
    const u8 bytes[] = {7, 1, 2};
    ByteCursor in(bytes);
    EXPECT_EQ(in.getU8(), 7u);
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.getU32(), 0u);  // overrun: 4 bytes wanted, 2 left
    ASSERT_FALSE(in.ok());
    const std::string first = in.error();
    EXPECT_NE(first.find("truncated payload"), std::string::npos);
    in.fail("a later problem");
    EXPECT_EQ(in.error(), first);
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_EQ(in.getU8(), 0u);
}

// ---------------------------------------------------------------------------
// Hostile payloads: one field edited and the chunk CRC re-sealed, so
// the CRC layer passes and only the payload parser can reject it.
// verify must, and so the runner's pre-flight must stop the run on the
// calling thread before any worker replays the trace.
// ---------------------------------------------------------------------------

namespace
{

u64
readLe(const std::vector<u8> &bytes, u64 at, int width)
{
    u64 v = 0;
    for (int i = 0; i < width; i++)
        v |= static_cast<u64>(bytes[at + i]) << (8 * i);
    return v;
}

/** Store @p value (@p width bytes, little-endian) at byte @p at of the
 *  payload of the chunk at @p chunk, then re-seal that chunk's CRC. */
void
patchAndReseal(std::vector<u8> &file, u64 chunk, u64 at, u64 value,
               int width)
{
    const u64 payload = chunk + traceChunkHeaderBytes;
    for (int i = 0; i < width; i++)
        file[payload + at + i] = static_cast<u8>(value >> (8 * i));
    const u32 type = static_cast<u32>(readLe(file, chunk, 4));
    const u64 length = readLe(file, chunk + 4, 8);
    const u32 crc = traceChunkCrc(type, {file.data() + payload, length});
    for (int i = 0; i < 4; i++)
        file[chunk + 12 + i] = static_cast<u8>(crc >> (8 * i));
}

struct HostileEdit
{
    const char *name;
    const char *chunk;  //!< the first chunk of this type is edited
    u64 at;             //!< payload byte offset
    u64 value;
    int width;          //!< bytes written
    const char *diagnostic;
};

// META payload ("tiny"): name @0..7, seed @8, frames @16, screen size
// @24..31, tile size @32..39. TEXT payload: id @0, width @4. FRAM
// payload: frame index u64 @0, state + clear color @8..12, draw count
// u32 @13, then the first draw: shader @17, blend @18, depth flags
// @19..20, textureId @21.
const HostileEdit hostileEdits[] = {
    {"shader", "FRAM", 17, 9, 1, "unknown shader kind 9"},
    {"blend", "FRAM", 18, 9, 1, "unknown blend mode 9"},
    {"drawCount", "FRAM", 13, 65535, 4, "declares 65535 draws"},
    {"frameIndex", "FRAM", 0, 7, 8, "records frame 7"},
    {"textureWidth", "TEXT", 4, 3, 4, "invalid dimensions 3x8"},
    {"textureId", "FRAM", 21, 1000, 4, "samples texture 1000"},
    {"tileHeight", "META", 36, 0, 4, "tiles 16x0"},
};

} // namespace

TEST(TraceIntegrity, VerifyRejectsCrcValidHostilePayloads)
{
    GpuConfig config = tinyConfig();
    auto scene = makeTinyScene(config);
    const std::string cleanPath = tmpTracePath("hostile_clean");
    captureTrace(*scene, config, 3, 7, cleanPath);
    const std::vector<u8> original = readFileBytes(cleanPath);
    // META is the first chunk and the first TEXT chunk follows it.
    const u64 meta = sizeof(traceMagic);
    const u64 text0 =
        meta + traceChunkHeaderBytes + readLe(original, meta + 4, 8);
    const u64 frame0 = TraceReader(cleanPath).frameOffset(0);
    std::remove(cleanPath.c_str());

    for (const HostileEdit &edit : hostileEdits) {
        SCOPED_TRACE(edit.name);
        // One path per edit: the runner caches verification per path.
        const std::string path =
            tmpTracePath(std::string("hostile_") + edit.name);
        std::vector<u8> bytes = original;
        const std::string chunkName = edit.chunk;
        const u64 chunk = chunkName == "META" ? meta
            : chunkName == "TEXT"             ? text0
                                              : frame0;
        patchAndReseal(bytes, chunk, edit.at, edit.value, edit.width);
        writeFileBytes(path, bytes);

        const TraceVerifyReport report = verifyTraceFile(path);
        ASSERT_FALSE(report.ok);
        ASSERT_EQ(report.errors.size(), 1u) << report.errors.front();
        const std::string &error = report.errors.front();
        EXPECT_NE(error.find(chunkName + " chunk at offset "
                             + std::to_string(chunk)),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(edit.diagnostic), std::string::npos)
            << error;
        // Replay runs the same parser and fatal()s on the same problem.
        EXPECT_EXIT(
            {
                TraceScene replay(path);
                for (u64 f = 0; f < replay.replayFrames(); f++)
                    replay.emitFrame(f);
            },
            ::testing::ExitedWithCode(1), edit.diagnostic);

        SimJob job;
        job.workload = "tiny";
        job.config = config;
        job.options.frames = 3;
        job.tracePath = path;
        EXPECT_EXIT(ParallelRunner(2).run({job, job}),
                    ::testing::ExitedWithCode(1), "failed verification");
        std::remove(path.c_str());
    }
}

TEST(TraceIntegrity, MetaSizesFollowGpuConfigsRule)
{
    // META's screen and tile sizes obey GpuConfig::validate's rule. The
    // first two edits are the escapes a seeded trial of re-sealed META
    // edits found on a 64x48x3 ccs trace: both used to verify, and the
    // replay then ran out of memory. Verify, the reader and validate
    // each reject every edit with the same diagnostic.
    GpuConfig config = tinyConfig();
    auto scene = makeBenchmark("ccs", config);
    const std::string cleanPath = tmpTracePath("meta_sizes_clean");
    captureTrace(*scene, config, 3, 7, cleanPath);
    const std::vector<u8> original = readFileBytes(cleanPath);
    std::remove(cleanPath.c_str());
    // META payload: name (u32 length + bytes), seed, frames, then the
    // screen and tile sizes.
    const u64 meta = sizeof(traceMagic);
    const u64 sizesAt =
        4 + readLe(original, meta + traceChunkHeaderBytes, 4) + 16;

    struct Sizes
    {
        const char *name;
        u32 screenWidth, screenHeight, tileWidth, tileHeight;
        const char *diagnostic;
    };
    const Sizes edits[] = {
        {"wideTile", 64, 48, 134217744, 16,
         "tile larger than the screen: screen 64x48, tiles 134217744x16"},
        {"tallTile", 64, 48, 16, 1073741840,
         "tile larger than the screen: screen 64x48, tiles 16x1073741840"},
        {"hugeScreen", 1500000, 48, 16, 16,
         "screen of more than 67108864 pixels: screen 1500000x48, "
         "tiles 16x16"},
    };
    for (const Sizes &edit : edits) {
        SCOPED_TRACE(edit.name);
        const std::string path =
            tmpTracePath(std::string("meta_") + edit.name);
        std::vector<u8> bytes = original;
        patchAndReseal(bytes, meta, sizesAt, edit.screenWidth, 4);
        patchAndReseal(bytes, meta, sizesAt + 4, edit.screenHeight, 4);
        patchAndReseal(bytes, meta, sizesAt + 8, edit.tileWidth, 4);
        patchAndReseal(bytes, meta, sizesAt + 12, edit.tileHeight, 4);
        writeFileBytes(path, bytes);

        const TraceVerifyReport report = verifyTraceFile(path);
        ASSERT_FALSE(report.ok);
        ASSERT_EQ(report.errors.size(), 1u) << report.errors.front();
        EXPECT_NE(report.errors.front().find(edit.diagnostic),
                  std::string::npos)
            << report.errors.front();
        EXPECT_EXIT({ TraceReader reader(path); },
                    ::testing::ExitedWithCode(1), edit.diagnostic);
        GpuConfig live;
        live.screenWidth = edit.screenWidth;
        live.screenHeight = edit.screenHeight;
        live.tileWidth = edit.tileWidth;
        live.tileHeight = edit.tileHeight;
        EXPECT_EXIT(live.validate(), ::testing::ExitedWithCode(1),
                    edit.diagnostic);
        std::remove(path.c_str());
    }
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
    // A run of no frames would print NaN tables or trip geomean's
    // assertion instead of failing up front.
    EXPECT_EXIT(parse({"--fast", "--frames", "0"}),
                ::testing::ExitedWithCode(1), "--frames must be >= 1");
    EXPECT_EXIT(parse({"--record-dir"}), ::testing::ExitedWithCode(1),
                "expects a value");
}
