/**
 * @file
 * suite_cli: run any workload under any set of techniques from the
 * command line and emit a detailed report and/or CSV.
 *
 * Usage:
 *   suite_cli [--workload ALIAS|all] [--tech base,re,te,memo]
 *             [--frames N] [--width W --height H]
 *             [--hash crc32|xor|add|fnv] [--csv FILE] [--json FILE]
 *             [--quiet] [--jobs N] [--tile-jobs N] [--seed N]
 *             [--record-dir DIR] [--replay-dir DIR]
 *             [--assert-conservation] [--obs-dir DIR] [--obs-tiles]
 *             [--progress]
 *
 * Examples:
 *   suite_cli --workload ccs --tech base,re
 *   suite_cli --workload all --tech base,re,te,memo --csv out.csv
 *   suite_cli --workload all --tech base,re --jobs 4
 *   suite_cli --workload all --record-dir traces/
 *   suite_cli --workload all --replay-dir traces/ --csv replay.csv
 *
 * --jobs N runs the (workload x technique) sweep on N worker threads
 * (0 = all cores). Output and CSV are bit-identical for any N: each
 * cell's summary prints once it and every earlier cell are done.
 * --tile-jobs N rasterizes each frame's tiles on N intra-frame
 * workers (N >= 1; docs/ARCHITECTURE.md has the threading model).
 * Output stays bit-identical for any N, and composes with --jobs:
 * every sweep worker gets its own tile pool.
 * --seed N derives a distinct content seed per workload (any N,
 * including 1); techniques of the same workload always share a seed
 * for fairness. Without the flag every workload uses the legacy
 * shared seed 1.
 * --record-dir captures one frame trace per workload before the runs;
 * --replay-dir feeds the runs from those traces instead of live scene
 * generation — results are bit-identical to the recorded live run.
 * --frames must be >= 1 and --width/--height in 1..UINT32_MAX; a
 * malformed or out-of-range number is fatal, never truncated.
 * --json appends one self-describing JSON object per run (JSON-Lines).
 * --assert-conservation exits fatally if any run reports a non-zero
 * mem.conservationViolations stat (a memory-hierarchy routing path
 * double-charged or dropped bytes) — the CI traffic-conservation
 * smoke.
 * --obs-dir DIR enables the observability layer (src/obs/): a Chrome
 * trace-event timeline (DIR/timeline.trace.json, load in
 * chrome://tracing or Perfetto), per-frame stat time-series JSONL and
 * RE/TE/DRAM tile heatmaps per sweep cell. Observability only reads
 * simulator state: stdout/CSV stay bit-identical with or without it,
 * for any --jobs. --obs-tiles additionally records per-tile spans
 * (numTiles events per frame — large).
 * --progress renders live sweep progress (cells done/total, EWMA cell
 * time, ETA) on stderr, one update per cell in job order; stdout is
 * untouched.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/obs.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

struct CliOptions
{
    std::vector<std::string> workloads{"ccs"};
    std::vector<Technique> techniques{Technique::Baseline,
                                      Technique::RenderingElimination};
    u64 frames = 20;
    u32 width = 598, height = 384;
    HashKind hash = HashKind::Crc32;
    std::string csvPath;
    std::string jsonPath;
    std::string recordDir;
    std::string replayDir;
    std::string obsDir;
    bool obsTiles = false;
    bool progress = false;
    bool quiet = false;
    bool assertConservation = false;
    unsigned jobs = 1;
    unsigned tileJobs = 1;
    u64 seed = 1;        //!< base content seed
    bool seedSet = false;  //!< --seed given: derive per-workload seeds
                           //!< (fair across techniques); unset: legacy
                           //!< shared seed 1
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: suite_cli [--workload ALIAS|all] "
                 "[--tech base,re,te,memo] [--frames N]\n"
                 "                 [--width W --height H] "
                 "[--hash crc32|xor|add|fnv] [--csv FILE] "
                 "[--json FILE] [--quiet]\n"
                 "                 [--jobs N] [--tile-jobs N] [--seed N] "
                 "[--record-dir DIR] [--replay-dir DIR] "
                 "[--assert-conservation]\n"
                 "                 [--obs-dir DIR] [--obs-tiles] "
                 "[--progress]\n");
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--workload") {
            std::string w = next(i);
            if (w == "all") {
                opts.workloads.clear();
                for (const auto &b : benchmarkSuite())
                    opts.workloads.push_back(b.alias);
            } else {
                opts.workloads = {w};
            }
        } else if (arg == "--tech") {
            opts.techniques = parseTechniqueListArg(next(i));
        } else if (arg == "--frames") {
            opts.frames = parseFramesArg(next(i));
        } else if (arg == "--width") {
            opts.width = parseDimensionArg("--width", next(i));
        } else if (arg == "--height") {
            opts.height = parseDimensionArg("--height", next(i));
        } else if (arg == "--hash") {
            opts.hash = parseHashArg(next(i));
        } else if (arg == "--csv") {
            opts.csvPath = next(i);
        } else if (arg == "--json") {
            opts.jsonPath = next(i);
        } else if (arg == "--record-dir") {
            opts.recordDir = next(i);
        } else if (arg == "--replay-dir") {
            opts.replayDir = next(i);
        } else if (arg == "--obs-dir") {
            opts.obsDir = next(i);
        } else if (arg == "--obs-tiles") {
            opts.obsTiles = true;
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--assert-conservation") {
            opts.assertConservation = true;
        } else if (arg == "--jobs") {
            opts.jobs = parseJobsArg(next(i));
        } else if (arg == "--tile-jobs") {
            opts.tileJobs = parseTileJobsArg(next(i));
        } else if (arg == "--seed") {
            opts.seed = parseCountArg("--seed", next(i));
            opts.seedSet = true;
        } else {
            usage();
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    CliOptions opts = parseArgs(argc, argv);

    std::ofstream csv;
    bool csvHeader = true;
    if (!opts.csvPath.empty()) {
        csv.open(opts.csvPath);
        if (!csv)
            fatal("cannot open csv file: ", opts.csvPath);
    }
    std::ofstream json;
    if (!opts.jsonPath.empty()) {
        json.open(opts.jsonPath);
        if (!json)
            fatal("cannot open json file: ", opts.jsonPath);
    }

    // Flatten the sweep into jobs; reporting walks results in job
    // order, so the output is identical whatever --jobs is.
    std::vector<SimJob> jobs =
        buildSweepJobs(opts.workloads, opts.techniques, opts.width,
                       opts.height, opts.frames, opts.hash);
    if (opts.seedSet) {
        // Decorrelate content across workloads while keeping the seed
        // identical across techniques of the same workload (fairness).
        // Gated on the flag, not the value, so --seed 1 behaves like
        // every other base seed.
        for (SimJob &job : jobs)
            job.sceneSeed = deriveJobSeed(opts.seed, job.workload);
    }

    // Trace capture/replay: record before the sweep, then optionally
    // feed the sweep from traces instead of live generation.
    applyTraceFlags(jobs, opts.recordDir, opts.replayDir);

    for (SimJob &job : jobs)
        job.options.tileJobs = opts.tileJobs;

    // Observability: enable the process-wide timeline sink and point
    // every cell's artifact writer into --obs-dir. Tags are unique per
    // cell (workload x technique), so artifact files never collide.
    if (!opts.obsDir.empty()) {
        ObsSink::instance().enable(ObsSink::defaultRingEvents,
                                   opts.obsTiles);
        for (SimJob &job : jobs) {
            job.options.obsDir = opts.obsDir;
            job.options.obsTag =
                job.workload + "."
                + techniqueName(job.config.technique);
        }
    }

    // The runner reports each cell on this thread, in job order, as
    // soon as it and every earlier cell are done, so summaries stream
    // while later cells run and stdout is the same for any --jobs.
    // Jobs are workload-major, so a workload's comparison follows its
    // last technique.
    std::vector<SimResult> workloadResults;
    auto reportCell = [&](const ProgressUpdate &u, const SimResult &r) {
        const SimJob &job = jobs[u.jobIndex];
        // Progress renders on stderr only: stdout stays byte-identical
        // with or without --progress.
        if (opts.progress) {
            std::fprintf(
                stderr, "\r[%zu/%zu] %s.%s %.2fs | avg %.2fs | eta %.0fs   ",
                u.done, u.total, job.workload.c_str(),
                techniqueName(job.config.technique), u.cellSeconds,
                u.ewmaCellSeconds, u.etaSeconds);
            if (u.done == u.total)
                std::fputc('\n', stderr);
            std::fflush(stderr);
        }
        if (!opts.quiet) {
            printRunSummary(std::cout, r, job.config);
            std::cout << "\n";
        }
        if (csv.is_open()) {
            writeCsvRow(csv, r, csvHeader);
            csvHeader = false;
        }
        if (json.is_open())
            writeJsonRun(json, r, job.config, job.sceneSeed);
        workloadResults.push_back(r);
        if (workloadResults.size() < opts.techniques.size())
            return;
        if (!opts.quiet && workloadResults.size() > 1) {
            printComparison(std::cout, workloadResults);
            std::cout << "\n";
        }
        workloadResults.clear();
    };

    const std::vector<SimResult> sweepResults =
        ParallelRunner(opts.jobs).run(jobs, reportCell);

    if (!opts.quiet && sweepResults.size() > 1) {
        const SimResult agg = mergeResults(sweepResults);
        std::cout << "== sweep aggregate: " << agg.workload << " ("
                  << sweepResults.size() << " runs, " << agg.frames
                  << " frames) ==\n"
                  << "cycles " << agg.totalCycles() << ", energy "
                  << agg.energy.total() / 1e9 << " mJ, dram "
                  << agg.traffic.total() / (1024.0 * 1024.0)
                  << " MB, tiles " << agg.tilesRendered << "/"
                  << agg.tilesTotal << " rendered ("
                  << agg.tilesSkippedByRe << " eliminated), fragments "
                  << agg.fragmentsShaded << " shaded\n";
    }

    if (opts.assertConservation) {
        u64 violations = 0;
        for (const SimResult &r : sweepResults)
            violations += r.stats.counter("mem.conservationViolations");
        if (violations)
            fatal("traffic conservation violated: ", violations,
                  " boundary mismatches across ", sweepResults.size(),
                  " runs");
        std::cout << "traffic conservation: 0 violations across "
                  << sweepResults.size() << " runs\n";
    }

    // Flush the timeline last so it covers the whole sweep. The notice
    // goes to stderr: "wrote" lines on stdout are part of the
    // byte-identity contract checked by scripts/check.sh --obs.
    if (!opts.obsDir.empty()) {
        const std::string timelinePath =
            opts.obsDir + "/timeline.trace.json";
        if (ObsSink::instance().flushToFile(timelinePath))
            std::fprintf(stderr, "obs: wrote %s\n",
                         timelinePath.c_str());
        else
            warn("obs: cannot write timeline: ", timelinePath);
    }

    if (csv.is_open())
        std::cout << "wrote " << opts.csvPath << "\n";
    if (json.is_open())
        std::cout << "wrote " << opts.jsonPath << "\n";
    return 0;
}
