/**
 * @file
 * trace_cli: manage frame traces of the capture/replay subsystem.
 *
 * Subcommands:
 *   record <alias|all>  capture benchmark scenes into trace files
 *       --dir DIR (default ".") | --out FILE (single alias only)
 *       --frames N (default 30) --width W --height H (default Table I)
 *       --seed N (default 1)
 *   info <file>         print META, chunk census and size breakdown
 *   verify <file>...    walk the whole file checking every chunk CRC,
 *                       the index table and the footer; exit 1 on any
 *                       corruption
 *   replay <file>       simulate from a trace
 *       --tech base,re,te,memo (default base,re) --hash K --jobs N
 *       --tile-jobs N (intra-frame tile workers; results identical
 *       for any N, see docs/ARCHITECTURE.md)
 *       --frames N (default: all recorded) --shards N (frame-range
 *       sharding across the worker pool; merged summary) --csv FILE
 *       --json FILE --quiet --obs-dir DIR (timeline + per-frame
 *       artifacts, see src/obs/; shard tags gain a .shardN suffix so
 *       artifact files never collide)
 *   splice <out> <in>[@first:count]...
 *                       build a new trace from frame ranges of
 *                       existing traces (inputs must share resolution
 *                       and byte-identical texture sets)
 *
 * Examples:
 *   trace_cli record all --dir traces --frames 30
 *   trace_cli verify traces/ccs.rgputrace
 *   trace_cli replay traces/ccs.rgputrace --tech base,re --jobs 2
 *   trace_cli splice mix.rgputrace traces/ccs.rgputrace@0:10 \
 *       traces/ccs.rgputrace@20:10
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_scene.hh"
#include "trace/trace_writer.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_cli <subcommand> ...\n"
        "  record <alias|all> [--dir DIR | --out FILE] [--frames N]\n"
        "         [--width W --height H] [--seed N]\n"
        "  info <file>\n"
        "  verify <file>...\n"
        "  replay <file> [--tech base,re,te,memo] [--hash K] "
        "[--jobs N] [--tile-jobs N]\n"
        "         [--frames N] [--shards N] [--csv FILE] "
        "[--json FILE] [--quiet]\n"
        "         [--obs-dir DIR]\n"
        "  splice <out> <in>[@first:count]...\n");
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage();
    return argv[++i];
}

// ---------------------------------------------------------------------------
// record
// ---------------------------------------------------------------------------

int
cmdRecord(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string target = argv[2];
    std::string dir = ".";
    std::string outFile;
    u64 frames = 30;
    u64 seed = 1;
    GpuConfig config;
    for (int i = 3; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--dir")
            dir = nextArg(argc, argv, i);
        else if (arg == "--out")
            outFile = nextArg(argc, argv, i);
        else if (arg == "--frames")
            frames = parseCountArg("--frames", nextArg(argc, argv, i));
        else if (arg == "--width")
            config.screenWidth =
                parseDimensionArg("--width", nextArg(argc, argv, i));
        else if (arg == "--height")
            config.screenHeight =
                parseDimensionArg("--height", nextArg(argc, argv, i));
        else if (arg == "--seed")
            seed = parseCountArg("--seed", nextArg(argc, argv, i));
        else
            usage();
    }

    std::vector<std::string> aliases;
    if (target == "all") {
        if (!outFile.empty())
            fatal("--out needs a single alias, not 'all'");
        for (const auto &b : benchmarkSuite())
            aliases.push_back(b.alias);
    } else {
        if (!isBenchmarkAlias(target))
            fatalUnknownAlias(target);
        aliases.push_back(target);
    }

    for (const std::string &alias : aliases) {
        auto scene = makeBenchmark(alias, config, seed);
        const std::string path =
            outFile.empty() ? traceFilePath(dir, alias) : outFile;
        captureTrace(*scene, config, frames, seed, path);
        TraceReader reader(path);
        std::printf("recorded %s: %llu frames, %u textures, %.2f MB\n",
                    path.c_str(),
                    static_cast<unsigned long long>(reader.frameCount()),
                    reader.meta().textureCount,
                    reader.fileBytes() / (1024.0 * 1024.0));
    }
    return 0;
}

// ---------------------------------------------------------------------------
// info
// ---------------------------------------------------------------------------

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        usage();
    TraceReader reader(argv[2]);
    const TraceMeta &meta = reader.meta();
    std::printf("trace      : %s\n", argv[2]);
    std::printf("workload   : %s\n", meta.name.c_str());
    std::printf("seed       : %llu\n",
                static_cast<unsigned long long>(meta.seed));
    std::printf("resolution : %ux%u (tiles %ux%u)\n", meta.screenWidth,
                meta.screenHeight, meta.tileWidth, meta.tileHeight);
    std::printf("frames     : %llu\n",
                static_cast<unsigned long long>(reader.frameCount()));
    std::printf("textures   : %u\n", meta.textureCount);
    std::printf("file size  : %llu bytes (%.2f MB)\n",
                static_cast<unsigned long long>(reader.fileBytes()),
                reader.fileBytes() / (1024.0 * 1024.0));
    if (reader.frameCount() > 0) {
        // Frame payload span: first frame offset .. index chunk.
        const u64 firstFrame = reader.frameOffset(0);
        const u64 frameBytes = reader.fileBytes() - firstFrame;
        std::printf("avg frame  : %.1f KB\n",
                    frameBytes / 1024.0
                        / static_cast<double>(reader.frameCount()));
        FrameCommands f0 = reader.readFrame(0);
        u64 verts = 0;
        for (const DrawCall &d : f0.draws)
            verts += d.vertices.size();
        std::printf("frame 0    : %zu draws, %llu vertices\n",
                    f0.draws.size(),
                    static_cast<unsigned long long>(verts));
    }
    return 0;
}

// ---------------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------------

int
cmdVerify(int argc, char **argv)
{
    if (argc < 3)
        usage();
    bool allOk = true;
    for (int i = 2; i < argc; i++) {
        TraceVerifyReport report = verifyTraceFile(argv[i]);
        if (report.ok) {
            std::printf("%s: OK (%llu chunks, %llu frames, "
                        "%llu textures, %llu bytes)\n",
                        argv[i],
                        static_cast<unsigned long long>(report.chunks),
                        static_cast<unsigned long long>(report.frames),
                        static_cast<unsigned long long>(report.textures),
                        static_cast<unsigned long long>(report.fileBytes));
        } else {
            allOk = false;
            std::printf("%s: CORRUPT\n", argv[i]);
            for (const std::string &e : report.errors)
                std::printf("  - %s\n", e.c_str());
        }
    }
    return allOk ? 0 : 1;
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string path = argv[2];
    std::vector<Technique> techniques{Technique::Baseline,
                                      Technique::RenderingElimination};
    HashKind hash = HashKind::Crc32;
    unsigned jobs = 1;
    unsigned tileJobs = 1;
    unsigned shards = 1;
    u64 frames = 0;  // 0: all recorded frames
    std::string csvPath, jsonPath, obsDir;
    bool quiet = false;
    for (int i = 3; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--tech") {
            techniques = parseTechniqueListArg(nextArg(argc, argv, i));
        } else if (arg == "--hash") {
            hash = parseHashArg(nextArg(argc, argv, i));
        } else if (arg == "--jobs") {
            jobs = parseJobsArg(nextArg(argc, argv, i));
        } else if (arg == "--tile-jobs") {
            tileJobs = parseTileJobsArg(nextArg(argc, argv, i));
        } else if (arg == "--shards") {
            const u64 v =
                parseCountArg("--shards", nextArg(argc, argv, i));
            if (v == 0 || v > 1u << 16)
                fatal("--shards expects a small positive count");
            shards = static_cast<unsigned>(v);
        } else if (arg == "--frames") {
            frames = parseCountArg("--frames", nextArg(argc, argv, i));
        } else if (arg == "--csv") {
            csvPath = nextArg(argc, argv, i);
        } else if (arg == "--json") {
            jsonPath = nextArg(argc, argv, i);
        } else if (arg == "--obs-dir") {
            obsDir = nextArg(argc, argv, i);
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage();
        }
    }

    if (!obsDir.empty())
        ObsSink::instance().enable();

    std::ofstream csv, json;
    bool csvHeader = true;
    if (!csvPath.empty()) {
        csv.open(csvPath);
        if (!csv)
            fatal("cannot open csv file: ", csvPath);
    }
    if (!jsonPath.empty()) {
        json.open(jsonPath);
        if (!json)
            fatal("cannot open json file: ", jsonPath);
    }

    ParallelRunner runner(jobs);
    for (Technique tech : techniques) {
        GpuConfig config;
        config.technique = tech;
        SimOptions options;
        options.frames = frames;
        options.hashKind = hash;
        options.tileJobs = tileJobs;

        std::vector<SimJob> shardJobs =
            buildReplayShards(path, config, options, shards);
        // Per-cell artifact tags: shards of the same technique would
        // otherwise write into the same files.
        if (!obsDir.empty()) {
            for (std::size_t s = 0; s < shardJobs.size(); s++) {
                shardJobs[s].options.obsDir = obsDir;
                std::string tag = shardJobs[s].workload + "."
                    + techniqueName(tech);
                if (shardJobs.size() > 1)
                    tag += ".shard" + std::to_string(s);
                shardJobs[s].options.obsTag = std::move(tag);
            }
        }
        std::vector<SimResult> results = runner.run(shardJobs);
        SimResult merged =
            shards == 1 ? std::move(results.front())
                        : mergeResults(results);
        if (!quiet) {
            if (shards > 1)
                std::cout << "(merged from " << shardJobs.size()
                          << " frame-range shards; per-shard history "
                             "resets at range boundaries)\n";
            printRunSummary(std::cout, merged, shardJobs.front().config);
            std::cout << "\n";
        }
        if (csv.is_open()) {
            writeCsvRow(csv, merged, csvHeader);
            csvHeader = false;
        }
        if (json.is_open())
            writeJsonRun(json, merged, shardJobs.front().config,
                         shardJobs.front().sceneSeed);
    }
    if (!obsDir.empty()) {
        const std::string timelinePath =
            obsDir + "/timeline.trace.json";
        if (ObsSink::instance().flushToFile(timelinePath))
            std::fprintf(stderr, "obs: wrote %s\n",
                         timelinePath.c_str());
        else
            warn("obs: cannot write timeline: ", timelinePath);
    }
    if (csv.is_open())
        std::cout << "wrote " << csvPath << "\n";
    if (json.is_open())
        std::cout << "wrote " << jsonPath << "\n";
    return 0;
}

// ---------------------------------------------------------------------------
// splice
// ---------------------------------------------------------------------------

/** One splice input: a trace path plus a frame window. */
struct SpliceInput
{
    std::string path;
    u64 first = 0;
    u64 count = 0;  //!< 0: to the end
};

SpliceInput
parseSpliceInput(const std::string &spec)
{
    SpliceInput in;
    const std::size_t at = spec.rfind('@');
    if (at == std::string::npos) {
        in.path = spec;
        return in;
    }
    in.path = spec.substr(0, at);
    const std::string window = spec.substr(at + 1);
    const std::size_t colon = window.find(':');
    if (colon == std::string::npos)
        fatal("splice window must be @first:count, got: ", spec);
    in.first =
        parseCountArg("splice first", window.substr(0, colon).c_str());
    in.count = parseCountArg("splice count",
                             window.substr(colon + 1).c_str());
    if (in.count == 0)
        fatal("splice count must be positive: ", spec);
    return in;
}

int
cmdSplice(int argc, char **argv)
{
    if (argc < 4)
        usage();
    const std::string outPath = argv[2];
    std::vector<SpliceInput> inputs;
    for (int i = 3; i < argc; i++)
        inputs.push_back(parseSpliceInput(argv[i]));

    // Resolve windows and cross-check compatibility against the first
    // input: splicing streams recorded over different texture sets or
    // resolutions would replay garbage.
    std::vector<TraceReader> readers;
    readers.reserve(inputs.size());
    u64 totalFrames = 0;
    for (SpliceInput &in : inputs) {
        readers.emplace_back(in.path);
        const TraceReader &r = readers.back();
        if (in.count == 0) {
            if (in.first > r.frameCount())
                fatal("splice window starts past the end of ", in.path);
            in.count = r.frameCount() - in.first;
        }
        if (in.first + in.count > r.frameCount())
            fatal("splice window [", in.first, ", ",
                  in.first + in.count, ") exceeds the ",
                  r.frameCount(), " frames of ", in.path);
        totalFrames += in.count;
    }
    const TraceMeta &base = readers.front().meta();
    std::vector<Texture> baseTextures = readers.front().readTextures();
    for (std::size_t i = 1; i < readers.size(); i++) {
        const TraceMeta &m = readers[i].meta();
        if (m.screenWidth != base.screenWidth
            || m.screenHeight != base.screenHeight
            || m.tileWidth != base.tileWidth
            || m.tileHeight != base.tileHeight)
            fatal("splice: ", inputs[i].path,
                  " resolution differs from ", inputs[0].path);
        std::vector<Texture> textures = readers[i].readTextures();
        bool same = textures.size() == baseTextures.size();
        for (std::size_t t = 0; same && t < textures.size(); t++)
            same = textures[t].id() == baseTextures[t].id()
                && textures[t].width() == baseTextures[t].width()
                && textures[t].height() == baseTextures[t].height()
                && textures[t].texelData()
                    == baseTextures[t].texelData();
        if (!same)
            fatal("splice: ", inputs[i].path,
                  " texture set differs from ", inputs[0].path,
                  " (splice inputs must share byte-identical "
                  "textures)");
    }

    TraceMeta meta = base;
    meta.frames = totalFrames;
    TraceWriter writer(outPath, meta);
    for (const Texture &tex : baseTextures)
        writer.addTexture(tex);
    for (std::size_t i = 0; i < inputs.size(); i++)
        for (u64 f = 0; f < inputs[i].count; f++)
            writer.addFrame(readers[i].readFrame(inputs[i].first + f));
    writer.finish();
    std::printf("spliced %llu frames from %zu input(s) into %s\n",
                static_cast<unsigned long long>(totalFrames),
                inputs.size(), outPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "verify")
        return cmdVerify(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    if (cmd == "splice")
        return cmdSplice(argc, argv);
    usage();
}
