#include "sim/parallel_runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "crc/hashes.hh"
#include "gpu/tile_pool.hh"
#include "obs/obs.hh"
#include "trace/trace_scene.hh"
#include "trace/trace_writer.hh"
#include "trace/verified_cache.hh"
#include "workloads/workloads.hh"

namespace regpu
{

namespace
{

Technique
parseTechniqueArg(const std::string &name)
{
    if (name == "base" || name == "baseline")
        return Technique::Baseline;
    if (name == "re")
        return Technique::RenderingElimination;
    if (name == "te")
        return Technique::TransactionElimination;
    if (name == "memo")
        return Technique::FragmentMemoization;
    fatal("unknown technique: ", name,
          " (valid: base, re, te, memo)");
}

} // namespace

u64
deriveJobSeed(u64 baseSeed, const std::string &alias, u64 salt)
{
    // FNV-1a over the alias, then a splitmix64 finalizer so that
    // single-bit differences in (base, alias, salt) flip about half
    // the output bits.
    u64 h = 14695981039346656037ull;
    for (char c : alias) {
        h ^= static_cast<u8>(c);
        h *= 1099511628211ull;
    }
    u64 z = baseSeed + 0x9e3779b97f4a7c15ull * (salt + 1) + h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

u64
parseCountArg(const char *flag, const char *text)
{
    // strtoull accepts leading whitespace and a sign, silently
    // wrapping negatives modulo 2^64 — demand a plain digit first.
    if (text[0] < '0' || text[0] > '9')
        fatal(flag, " expects a number, got: ", text);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal(flag, " expects a number, got: ", text);
    return v;
}

unsigned
parseJobsArg(const char *text)
{
    const u64 v = parseCountArg("--jobs", text);
    if (v > std::numeric_limits<unsigned>::max())
        fatal("--jobs expects a number, got: ", text);
    return static_cast<unsigned>(v);
}

unsigned
parseTileJobsArg(const char *text)
{
    const u64 v = parseCountArg("--tile-jobs", text);
    if (v == 0 || v > std::numeric_limits<unsigned>::max())
        fatal("--tile-jobs expects a worker count >= 1, got: ", text);
    return static_cast<unsigned>(v);
}

u32
parseDimensionArg(const char *flag, const char *text)
{
    const u64 v = parseCountArg(flag, text);
    if (v == 0 || v > std::numeric_limits<u32>::max())
        fatal(flag, " expects a number in 1..",
              std::numeric_limits<u32>::max(), ", got: ", text);
    return static_cast<u32>(v);
}

std::vector<Technique>
parseTechniqueListArg(const std::string &list)
{
    std::vector<Technique> techniques;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        techniques.push_back(parseTechniqueArg(item));
    if (techniques.empty())
        fatal("--tech expects at least one technique "
              "(valid: base, re, te, memo)");
    return techniques;
}

HashKind
parseHashArg(const std::string &name)
{
    if (name == "crc32")
        return HashKind::Crc32;
    if (name == "xor")
        return HashKind::XorFold;
    if (name == "add")
        return HashKind::AddFold;
    if (name == "fnv")
        return HashKind::Fnv1a;
    fatal("unknown hash kind: ", name, " (", hashKindUsage(), ")");
}

std::vector<SimJob>
buildSweepJobs(const std::vector<std::string> &aliases,
               const std::vector<Technique> &techniques,
               u32 screenWidth, u32 screenHeight, u64 frames,
               HashKind hashKind, u64 sceneSeed)
{
    std::vector<SimJob> jobs;
    jobs.reserve(aliases.size() * techniques.size());
    for (const std::string &alias : aliases) {
        for (Technique tech : techniques) {
            SimJob job;
            job.workload = alias;
            job.config.scaleResolution(screenWidth, screenHeight);
            job.config.technique = tech;
            job.options.frames = frames;
            job.options.hashKind = hashKind;
            job.sceneSeed = sceneSeed;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : workers(jobs)
{
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
}

ProgressUpdate
ProgressTracker::cellDone(std::size_t jobIndex, double seconds)
{
    done_++;
    ewma_ = done_ == 1 ? seconds
                       : alpha * seconds + (1.0 - alpha) * ewma_;
    ProgressUpdate u;
    u.done = done_;
    u.total = total_;
    u.jobIndex = jobIndex;
    u.cellSeconds = seconds;
    u.ewmaCellSeconds = ewma_;
    const std::size_t remaining = total_ > done_ ? total_ - done_ : 0;
    const double lanes = static_cast<double>(
        std::min<std::size_t>(workers_, remaining ? remaining : 1));
    u.etaSeconds = static_cast<double>(remaining) * ewma_ / lanes;
    return u;
}

std::vector<SimResult>
ParallelRunner::run(const std::vector<SimJob> &jobs,
                    const CellDoneFn &onDone) const
{
    // Reject bad jobs on the calling thread: fatal() calls
    // std::exit(), which must never run on a worker while siblings
    // are mid-simulation. Live jobs must name a suite alias. Replay
    // jobs get their trace fully verified here (every chunk CRC, not
    // just the header/index a TraceReader open checks) via the
    // process-wide VerifiedTraceCache - TEXT/FRAM corruption is
    // otherwise only discovered lazily, which would put the fatal()
    // on a worker.
    for (const SimJob &job : jobs) {
        if (job.tracePath.empty()) {
            if (!isBenchmarkAlias(job.workload))
                fatalUnknownAlias(job.workload);
            continue;
        }
        const u64 traceFrames = VerifiedTraceCache::instance()
                                    .verifiedFrameCount(job.tracePath);
        if (job.traceFirstFrame + job.options.frames > traceFrames)
            fatal("trace: job wants frames [", job.traceFirstFrame,
                  ", ", job.traceFirstFrame + job.options.frames,
                  ") but ", job.tracePath, " has only ", traceFrames,
                  " frames");
    }

    std::vector<SimResult> results(jobs.size());
    std::vector<double> cellSeconds(jobs.size());
    ProgressTracker tracker(jobs.size(), workers);

    auto runCell = [&](std::size_t i) {
        const SimJob &job = jobs[i];
        const u64 startNs = obsNowNs();
        {
            // Job-lifecycle span named after the workload (interned:
            // the ring stores pointers, and job.workload outlives the
            // run but not necessarily the flush).
            const char *label = obsEnabled()
                ? ObsSink::instance().intern(job.workload) : "job";
            ObsScope jobSpan("runner", label, "job",
                             static_cast<i64>(i), "tech",
                             static_cast<i64>(job.config.technique));
            if (!job.tracePath.empty()) {
                TraceScene scene(job.tracePath, job.traceFirstFrame,
                                 job.options.frames);
                Simulator sim(scene, job.config, job.options);
                results[i] = sim.run();
            } else {
                auto scene = makeBenchmark(job.workload, job.config,
                                           job.sceneSeed);
                Simulator sim(*scene, job.config, job.options);
                results[i] = sim.run();
            }
        }
        cellSeconds[i] = static_cast<double>(obsNowNs() - startNs) * 1e-9;
    };
    auto reportCell = [&](std::size_t i) {
        if (onDone)
            onDone(tracker.cellDone(i, cellSeconds[i]), results[i]);
    };

    runOrdered(jobs.size(), workers, runCell, reportCell);
    return results;
}

void
recordSweepTraces(const std::vector<SimJob> &jobs, const std::string &dir)
{
    // One trace per distinct workload: techniques of the same sweep
    // share scene content (same alias, seed, resolution, frames), so
    // the first job of each alias fully specifies its capture.
    std::vector<std::string> recorded;
    for (const SimJob &job : jobs) {
        if (std::find(recorded.begin(), recorded.end(), job.workload)
            != recorded.end())
            continue;
        auto scene = makeBenchmark(job.workload, job.config,
                                   job.sceneSeed);
        const std::string path = traceFilePath(dir, job.workload);
        captureTrace(*scene, job.config, job.options.frames,
                     job.sceneSeed, path);
        inform("recorded ", job.options.frames, " frames of ",
               job.workload, " to ", path);
        recorded.push_back(job.workload);
    }
}

void
retargetJobsToTraces(std::vector<SimJob> &jobs, const std::string &dir)
{
    // One reader per distinct trace; warnings fire once per path, not
    // once per (workload x technique) cell.
    std::map<std::string, std::unique_ptr<TraceReader>> readers;
    for (SimJob &job : jobs) {
        job.tracePath = traceFilePath(dir, job.workload);
        auto it = readers.find(job.tracePath);
        const bool firstVisit = it == readers.end();
        if (firstVisit)
            it = readers
                     .emplace(job.tracePath,
                              std::make_unique<TraceReader>(job.tracePath))
                     .first;
        const TraceReader &reader = *it->second;
        const TraceMeta &meta = reader.meta();
        if (meta.name != job.workload)
            fatal("trace ", job.tracePath, " records workload '",
                  meta.name, "', not '", job.workload,
                  "' (stale or renamed trace?)");
        if (firstVisit
            && (meta.screenWidth != job.config.screenWidth
                || meta.screenHeight != job.config.screenHeight))
            warn("trace ", job.tracePath, " was captured at ",
                 meta.screenWidth, "x", meta.screenHeight,
                 "; replaying at that resolution (requested ",
                 job.config.screenWidth, "x", job.config.screenHeight,
                 ")");
        if (firstVisit && meta.seed != job.sceneSeed)
            warn("trace ", job.tracePath, " was captured with seed ",
                 meta.seed, "; replaying that content (requested seed ",
                 job.sceneSeed, ")");
        job.config.scaleResolution(meta.screenWidth, meta.screenHeight);
        if (meta.tileWidth != 0) {
            job.config.tileWidth = meta.tileWidth;
            job.config.tileHeight = meta.tileHeight;
        }
        if (job.options.frames > reader.frameCount())
            fatal("trace: replay wants ", job.options.frames,
                  " frames but ", job.tracePath, " holds only ",
                  reader.frameCount());
        job.sceneSeed = meta.seed;
    }
}

void
applyTraceFlags(std::vector<SimJob> &jobs, const std::string &recordDir,
                const std::string &replayDir)
{
    if (!recordDir.empty())
        recordSweepTraces(jobs, recordDir);
    if (!replayDir.empty())
        retargetJobsToTraces(jobs, replayDir);
}

std::vector<SimJob>
buildReplayShards(const std::string &tracePath, const GpuConfig &config,
                  const SimOptions &options, unsigned shards)
{
    if (shards == 0)
        fatal("buildReplayShards: shard count must be positive");
    TraceReader reader(tracePath);
    const TraceMeta &meta = reader.meta();
    if (options.frames > reader.frameCount())
        fatal("trace: replay wants ", options.frames, " frames but ",
              tracePath, " holds only ", reader.frameCount());
    const u64 frames =
        options.frames == 0 ? reader.frameCount() : options.frames;
    if (frames == 0)
        fatal("trace: nothing to replay in ", tracePath);
    const u64 shardCount = std::min<u64>(shards, frames);

    std::vector<SimJob> jobs;
    jobs.reserve(shardCount);
    u64 start = 0;
    for (u64 s = 0; s < shardCount; s++) {
        // Distribute remainder frames over the leading shards.
        const u64 len = frames / shardCount
            + (s < frames % shardCount ? 1 : 0);
        SimJob job;
        job.workload = meta.name;
        job.config = config;
        job.config.scaleResolution(meta.screenWidth, meta.screenHeight);
        if (meta.tileWidth != 0) {
            job.config.tileWidth = meta.tileWidth;
            job.config.tileHeight = meta.tileHeight;
        }
        job.options = options;
        job.options.frames = len;
        job.sceneSeed = meta.seed;
        job.tracePath = tracePath;
        job.traceFirstFrame = start;
        jobs.push_back(std::move(job));
        start += len;
    }
    return jobs;
}

SimResult
mergeResults(const std::vector<SimResult> &results)
{
    SimResult merged;
    if (results.empty())
        return merged;

    merged.workload = results.front().workload;
    merged.technique = results.front().technique;

    bool mixedTechniques = false;
    double equalPctWeighted = 0;
    for (const SimResult &r : results) {
        if (r.workload != merged.workload)
            merged.workload = "merged";
        if (r.technique != merged.technique)
            mixedTechniques = true;

        merged.frames += r.frames;
        merged.geometryCycles += r.geometryCycles;
        merged.rasterCycles += r.rasterCycles;

        merged.energy.gpuDynamic += r.energy.gpuDynamic;
        merged.energy.gpuStatic += r.energy.gpuStatic;
        merged.energy.memDynamic += r.energy.memDynamic;
        merged.energy.memStatic += r.energy.memStatic;

        merged.traffic.merge(r.traffic);

        merged.tileClasses.comparedTiles += r.tileClasses.comparedTiles;
        merged.tileClasses.equalColorsEqualInputs +=
            r.tileClasses.equalColorsEqualInputs;
        merged.tileClasses.equalColorsDiffInputs +=
            r.tileClasses.equalColorsDiffInputs;
        merged.tileClasses.diffColorsDiffInputs +=
            r.tileClasses.diffColorsDiffInputs;
        merged.tileClasses.diffColorsEqualInputs +=
            r.tileClasses.diffColorsEqualInputs;

        merged.tilesTotal += r.tilesTotal;
        merged.tilesRendered += r.tilesRendered;
        merged.tilesSkippedByRe += r.tilesSkippedByRe;
        merged.tileFlushesEliminated += r.tileFlushesEliminated;
        merged.fragmentsShaded += r.fragmentsShaded;
        merged.fragmentsMemoReused += r.fragmentsMemoReused;
        merged.signatureStallCycles += r.signatureStallCycles;
        merged.reFalsePositives += r.reFalsePositives;

        equalPctWeighted +=
            r.equalTilesConsecutivePct * static_cast<double>(r.frames);

        r.stats.forEachCounter([&merged](std::string_view name, u64 val) {
            merged.stats.inc(name, val);
        });
    }
    if (merged.frames > 0)
        merged.equalTilesConsecutivePct =
            equalPctWeighted / static_cast<double>(merged.frames);
    // Technique is an enum with no "mixed" value; flag the span in
    // the label so no report row attributes the aggregate to the
    // first technique alone.
    if (mixedTechniques)
        merged.workload += " (mixed techniques)";
    return merged;
}

} // namespace regpu
