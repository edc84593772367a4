/**
 * @file
 * micro_pipeline: end-to-end simulated frames per wall-clock second.
 *
 * Runs the full Simulator (geometry, binning, raster, technique
 * hooks, memory hierarchy, energy model) for each requested
 * (workload x technique) cell and reports host-side throughput. The
 * per-cell split shows where the time goes (3D scenes dominate); the
 * `total` row is the headline. This is an ad-hoc probe: the
 * benchmark that decides regressions is perfbench/ (BENCHMARK.json).
 *
 * Usage:
 *   micro_pipeline [--workload ALIAS|all] [--tech base,re,te,memo]
 *                  [--frames N] [--width W --height H]
 *                  [--seed N] [--tile-jobs N] [--obs-dir DIR]
 *
 * --tile-jobs N rasterizes each frame's tiles on N intra-frame
 * workers (results are bit-identical for any N; the flag only moves
 * wall-clock). With N > 1 the `total` row measures the tile-pool
 * speedup directly.
 *
 * --obs-dir enables the observability layer (timeline tracing plus
 * per-frame artifacts, src/obs/) so the reported throughput measures
 * the tracing-enabled path; a run without it gives the default-off
 * baseline, and the two totals price the tracing.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct Options
{
    std::vector<std::string> workloads;
    std::vector<Technique> techniques{Technique::Baseline,
                                      Technique::RenderingElimination};
    u64 frames = 8;
    u32 width = 256, height = 160;
    u64 seed = 1;
    unsigned tileJobs = 1;
    std::string obsDir;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (const auto &b : benchmarkSuite())
        opts.workloads.push_back(b.alias);
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("usage: micro_pipeline [--workload ALIAS|all] "
                  "[--tech base,re,te,memo] [--frames N] "
                  "[--width W --height H] [--seed N] [--tile-jobs N] "
                  "[--obs-dir DIR]");
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            std::string w = next(i);
            if (w != "all")
                opts.workloads = {w};
        } else if (arg == "--tech") {
            opts.techniques = parseTechniqueListArg(next(i));
        } else if (arg == "--frames") {
            opts.frames = parseFramesArg(next(i));
        } else if (arg == "--width") {
            opts.width = parseDimensionArg("--width", next(i));
        } else if (arg == "--height") {
            opts.height = parseDimensionArg("--height", next(i));
        } else if (arg == "--seed") {
            opts.seed = parseCountArg("--seed", next(i));
        } else if (arg == "--tile-jobs") {
            opts.tileJobs = parseTileJobsArg(next(i));
        } else if (arg == "--obs-dir") {
            opts.obsDir = next(i);
        } else {
            fatal("micro_pipeline: unknown flag '", arg, "'");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    Options opts = parseArgs(argc, argv);

    std::printf("== micro_pipeline: end-to-end frames/s, %llu frames, "
                "%ux%u ==\n",
                static_cast<unsigned long long>(opts.frames),
                opts.width, opts.height);
    std::printf("%-10s %-8s %12s %10s\n", "workload", "technique",
                "frames/s", "seconds");

    std::vector<SimJob> jobs =
        buildSweepJobs(opts.workloads, opts.techniques, opts.width,
                       opts.height, opts.frames, HashKind::Crc32,
                       opts.seed);
    for (SimJob &job : jobs)
        job.options.tileJobs = opts.tileJobs;
    if (!opts.obsDir.empty()) {
        ObsSink::instance().enable();
        for (SimJob &job : jobs) {
            job.options.obsDir = opts.obsDir;
            job.options.obsTag = job.workload + "."
                + techniqueName(job.config.technique);
        }
    }

    double totalSeconds = 0;
    u64 totalFrames = 0;
    for (const SimJob &job : jobs) {
        auto scene = makeBenchmark(job.workload, job.config,
                                   job.sceneSeed);
        auto t0 = std::chrono::steady_clock::now();
        Simulator sim(*scene, job.config, job.options);
        SimResult r = sim.run();
        const double seconds = secondsSince(t0);
        if (r.frames != opts.frames)
            fatal("run dropped frames: ", r.frames, " of ",
                  opts.frames);
        const double fps =
            seconds > 0 ? static_cast<double>(r.frames) / seconds : 0;
        totalSeconds += seconds;
        totalFrames += r.frames;

        const char *tech = techniqueName(job.config.technique);
        std::printf("%-10s %-8s %12.2f %10.3f\n", job.workload.c_str(),
                    tech, fps, seconds);
    }

    const double totalFps = totalSeconds > 0
        ? static_cast<double>(totalFrames) / totalSeconds
        : 0;
    std::printf("%-10s %-8s %12.2f %10.3f\n", "total", "-", totalFps,
                totalSeconds);

    if (!opts.obsDir.empty()) {
        const std::string timelinePath =
            opts.obsDir + "/timeline.trace.json";
        if (ObsSink::instance().flushToFile(timelinePath))
            std::fprintf(stderr, "obs: wrote %s\n",
                         timelinePath.c_str());
        else
            warn("obs: cannot write timeline: ", timelinePath);
    }
    return 0;
}
