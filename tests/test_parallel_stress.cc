/**
 * @file
 * ParallelRunner contention stress tests — the race-detection gate for
 * intra-frame tile parallelism (and any future concurrency).
 *
 * These suites are deliberately thread-heavy and run under
 * `scripts/check.sh --tsan` (-DREGPU_SANITIZE=thread) as well as in
 * the plain tier-1 pass: many small jobs racing for the worker pool,
 * worker counts far above the job count, the process-wide verified-
 * trace cache hammered from several runner threads at once, and
 * result merging validated against the sequential fold bit-for-bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "trace/trace_writer.hh"
#include "workloads/workloads.hh"

using namespace regpu;

namespace
{

/** Tiny live job: cheap enough that dozens fit in a TSan run. */
SimJob
tinyJob(const char *alias, Technique tech, u64 seed, u64 frames = 2)
{
    SimJob job;
    job.workload = alias;
    job.config.scaleResolution(96, 64);
    job.config.technique = tech;
    job.options.frames = frames;
    job.sceneSeed = seed;
    return job;
}

/** Many small jobs spanning aliases, techniques and seeds. */
std::vector<SimJob>
smallJobFlood(std::size_t count)
{
    static const char *const aliases[] = {"ccs", "mst", "ctr", "abi"};
    std::vector<SimJob> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; i++) {
        const char *alias = aliases[i % std::size(aliases)];
        const Technique tech = (i / std::size(aliases)) % 2 == 0
            ? Technique::Baseline
            : Technique::RenderingElimination;
        jobs.push_back(
            tinyJob(alias, tech, deriveJobSeed(1, alias, i / 8)));
    }
    return jobs;
}

/** CSV row of a result — one string carrying every exported metric,
 *  so "bit-identical" means what check.sh's smoke means by it. */
std::string
csvOf(const SimResult &r)
{
    std::ostringstream os;
    writeCsvRow(os, r, false);
    return os.str();
}

/** Stat-registry-deep equality via the CSV row plus the raw maps. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(csvOf(a), csvOf(b));
    EXPECT_EQ(a.stats.allCounters(), b.stats.allCounters());
}

} // namespace

TEST(ParallelStress, WorkerCountExceedsJobCount)
{
    // 16 workers, 3 jobs: the surplus workers must park without
    // touching any result slot.
    std::vector<SimJob> jobs = {
        tinyJob("ccs", Technique::Baseline, 1),
        tinyJob("mst", Technique::RenderingElimination, 2),
        tinyJob("ctr", Technique::TransactionElimination, 3),
    };
    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);
    const std::vector<SimResult> par = ParallelRunner(16).run(jobs);
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(seq[i], par[i]);
    }
}

TEST(ParallelStress, ManySmallJobsBitIdenticalAcrossWorkerCounts)
{
    // Far more jobs than workers: the work-stealing counter is under
    // real contention and completion order is thoroughly shuffled.
    const std::vector<SimJob> jobs = smallJobFlood(32);
    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);
    const std::vector<SimResult> par = ParallelRunner(8).run(jobs);
    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(seq[i], par[i]);
    }
    // The merge fold is position-based, so it must be oblivious to
    // which worker produced which slot.
    expectIdentical(mergeResults(seq), mergeResults(par));
}

TEST(ParallelStress, SharedReplayTraceCacheHammeredFromAllWorkers)
{
    // One trace file, every job replaying it: the process-wide
    // verified-trace cache takes its first miss and all subsequent
    // hits while several ParallelRunner::run() calls race on it from
    // distinct threads. TraceScene instances on every worker read the
    // same file concurrently through independent handles.
    const std::string path =
        testing::TempDir() + "regpu_stress_shared.rgputrace";
    GpuConfig config;
    config.scaleResolution(96, 64);
    const u64 frames = 4;
    {
        auto scene = makeBenchmark("ccs", config, 7);
        captureTrace(*scene, config, frames, 7, path);
    }

    auto replayJob = [&](Technique tech, u64 first, u64 len) {
        SimJob job = tinyJob("ccs", tech, 7, len);
        job.tracePath = path;
        job.traceFirstFrame = first;
        return job;
    };
    std::vector<SimJob> jobs;
    for (int rep = 0; rep < 4; rep++) {
        jobs.push_back(replayJob(Technique::Baseline, 0, frames));
        jobs.push_back(
            replayJob(Technique::RenderingElimination, 0, frames));
        jobs.push_back(replayJob(Technique::Baseline, 1, 2));
        jobs.push_back(
            replayJob(Technique::TransactionElimination, 2, 2));
    }

    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);

    // Hammer: four runner threads, each its own 4-worker pool over the
    // same job vector and the same trace file.
    std::vector<std::vector<SimResult>> results(4);
    std::vector<std::thread> runners;
    runners.reserve(results.size());
    for (std::size_t t = 0; t < results.size(); t++)
        runners.emplace_back([&, t] {
            results[t] = ParallelRunner(4).run(jobs);
        });
    for (auto &t : runners)
        t.join();

    for (std::size_t t = 0; t < results.size(); t++) {
        ASSERT_EQ(results[t].size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); i++) {
            SCOPED_TRACE("runner " + std::to_string(t) + " job "
                         + std::to_string(i));
            expectIdentical(seq[i], results[t][i]);
        }
    }
    std::remove(path.c_str());
}

TEST(ParallelStress, ObsSinkEnabledWhileRunnersHammerSharedTraceCache)
{
    // The SharedReplayTraceCache scenario again, but with tracing ON:
    // every worker of every pool attaches a per-thread obs ring (the
    // parked-ring reuse path churns as pools spawn and join), records
    // spans/counters into it, and interns job labels through the sink
    // lock — all while the verified-trace cache takes its concurrent
    // first-miss. Pins two contracts at once under TSan: the ObsSink
    // registry/intern/ring lifecycle is race-free against
    // ParallelRunner, and enabling observability perturbs no result
    // bit.
    const std::string path =
        testing::TempDir() + "regpu_stress_obs.rgputrace";
    GpuConfig config;
    config.scaleResolution(96, 64);
    const u64 frames = 4;
    {
        auto scene = makeBenchmark("ccs", config, 7);
        captureTrace(*scene, config, frames, 7, path);
    }

    auto replayJob = [&](Technique tech, u64 first, u64 len) {
        SimJob job = tinyJob("ccs", tech, 7, len);
        job.tracePath = path;
        job.traceFirstFrame = first;
        return job;
    };
    std::vector<SimJob> jobs;
    for (int rep = 0; rep < 4; rep++) {
        jobs.push_back(replayJob(Technique::Baseline, 0, frames));
        jobs.push_back(
            replayJob(Technique::RenderingElimination, 0, frames));
        jobs.push_back(
            replayJob(Technique::TransactionElimination, 1, 2));
    }

    // Reference results with the sink off.
    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);

    ObsSink::instance().enable(/*eventsPerThread=*/1u << 12);

    std::vector<std::vector<SimResult>> results(4);
    std::vector<std::thread> runners;
    runners.reserve(results.size());
    for (std::size_t t = 0; t < results.size(); t++)
        runners.emplace_back([&, t] {
            results[t] = ParallelRunner(4).run(jobs);
        });
    for (auto &t : runners)
        t.join();

    ObsSink::instance().disable();

    // 4 runner threads x 4 workers attached rings (the runner threads
    // themselves also record), and nothing raced: the flush must
    // produce loadable trace JSON with the runner spans present.
    EXPECT_GE(ObsSink::instance().threadCount(), 16u);
    std::ostringstream trace;
    ObsSink::instance().writeTraceJson(trace);
    EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.str().find("\"runner\""), std::string::npos);

    for (std::size_t t = 0; t < results.size(); t++) {
        ASSERT_EQ(results[t].size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); i++) {
            SCOPED_TRACE("runner " + std::to_string(t) + " job "
                         + std::to_string(i));
            expectIdentical(seq[i], results[t][i]);
        }
    }
    std::remove(path.c_str());
}

TEST(TilePoolStress, BitIdenticalAcrossTileJobCounts)
{
    // The tentpole contract: rasterizing a frame's tiles on any
    // number of intra-frame workers produces the same bits as the
    // serial pipeline — per workload, per technique, with the obs
    // sink enabled (span recording must not perturb results either).
    ObsSink::instance().enable(/*eventsPerThread=*/1u << 12);
    const Technique techs[] = {Technique::Baseline,
                               Technique::RenderingElimination,
                               Technique::TransactionElimination,
                               Technique::FragmentMemoization};
    for (Technique tech : techs) {
        SCOPED_TRACE(techniqueName(tech));
        std::vector<SimResult> byJobs;
        for (unsigned tileJobs : {1u, 4u, 8u}) {
            SimJob job = tinyJob("ccs", tech, 11, /*frames=*/3);
            job.options.tileJobs = tileJobs;
            byJobs.push_back(
                std::move(ParallelRunner(1).run({job}).front()));
        }
        expectIdentical(byJobs[0], byJobs[1]);
        expectIdentical(byJobs[0], byJobs[2]);
    }
    ObsSink::instance().disable();
}

TEST(TilePoolStress, OuterSweepWorkersTimesInnerTileWorkers)
{
    // Both pools at once: the sweep-level ParallelRunner schedules
    // cells on 4 workers while every cell rasterizes its tiles on 4
    // more. Under TSan this is the densest thread population in the
    // repo — 16+ simultaneous tile workers sharing nothing but the
    // obs sink — and the results must still match the fully serial
    // run slot for slot.
    std::vector<SimJob> jobs = smallJobFlood(12);
    const std::vector<SimResult> seq = ParallelRunner(1).run(jobs);

    for (SimJob &job : jobs)
        job.options.tileJobs = 4;
    ObsSink::instance().enable(/*eventsPerThread=*/1u << 12);
    const std::vector<SimResult> par = ParallelRunner(4).run(jobs);
    ObsSink::instance().disable();

    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(seq[i], par[i]);
    }
    expectIdentical(mergeResults(seq), mergeResults(par));
}

TEST(TilePoolStress, TileWorkerSpansReachTheTimeline)
{
    // Perfetto occupancy promise: with tracing on, every pool worker
    // emits a gpu.tileWorker span carrying its worker index, so the
    // timeline shows per-worker occupancy lanes rather than one
    // anonymous blob.
    ObsSink::instance().enable(/*eventsPerThread=*/1u << 12);
    SimJob job = tinyJob("ccs", Technique::RenderingElimination, 5,
                         /*frames=*/2);
    job.options.tileJobs = 4;
    (void)ParallelRunner(1).run({job});
    ObsSink::instance().disable();

    std::ostringstream trace;
    ObsSink::instance().writeTraceJson(trace);
    EXPECT_NE(trace.str().find("\"tileWorker\""), std::string::npos);
}

TEST(TilePoolStress, TileJobsArgParsingIsStrict)
{
    // parseJobsArg-style strictness for --tile-jobs: a typo'd or
    // nonsensical worker count must die with a usage message, not
    // silently render serially (0) or truncate (garbage).
    EXPECT_EQ(parseTileJobsArg("1"), 1u);
    EXPECT_EQ(parseTileJobsArg("8"), 8u);
    EXPECT_EXIT((void)parseTileJobsArg("0"),
                ::testing::ExitedWithCode(1), "--tile-jobs");
    EXPECT_EXIT((void)parseTileJobsArg("garbage"),
                ::testing::ExitedWithCode(1), "--tile-jobs");
    EXPECT_EXIT((void)parseTileJobsArg("-4"),
                ::testing::ExitedWithCode(1), "--tile-jobs");
    EXPECT_EXIT((void)parseTileJobsArg(""),
                ::testing::ExitedWithCode(1), "--tile-jobs");
    EXPECT_EXIT((void)parseTileJobsArg("99999999999999999999"),
                ::testing::ExitedWithCode(1), "--tile-jobs");
}

TEST(ParallelStress, MergeUnderContentionMatchesSequentialFold)
{
    // Merging while other pools are mid-flight must not perturb the
    // fold: mergeResults only reads its inputs, and each runner owns
    // its result vector.
    const std::vector<SimJob> jobs = smallJobFlood(12);
    const SimResult seqMerged = mergeResults(ParallelRunner(1).run(jobs));

    std::vector<SimResult> merged(3);
    std::vector<std::thread> runners;
    runners.reserve(merged.size());
    for (std::size_t t = 0; t < merged.size(); t++)
        runners.emplace_back([&, t] {
            merged[t] = mergeResults(ParallelRunner(3).run(jobs));
        });
    for (auto &t : runners)
        t.join();

    for (std::size_t t = 0; t < merged.size(); t++) {
        SCOPED_TRACE("runner " + std::to_string(t));
        expectIdentical(seqMerged, merged[t]);
    }
}
