/**
 * @file
 * Multithreaded experiment driver.
 *
 * A simulation sweep is embarrassingly parallel: every
 * (workload x technique x config) cell is an independent Simulator
 * run with its own Scene, MemSystem and StatRegistry. The runner
 * schedules those cells on the ordered pool the raster phase also
 * uses (gpu/tile_pool.hh) and writes each result into the slot
 * matching its job index, so the output — and any aggregation folded
 * over it — is bit-identical for every worker count, including 1.
 *
 * Determinism contract:
 *  - scene content is generated from SimJob::sceneSeed only (use
 *    deriveJobSeed() to give sweep cells distinct but reproducible
 *    content);
 *  - the Simulator itself is single-threaded and owns all its state;
 *  - results are stored by job index, never by completion order.
 */

#ifndef REGPU_SIM_PARALLEL_RUNNER_HH
#define REGPU_SIM_PARALLEL_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace regpu
{

/** One independent simulation cell of a sweep. */
struct SimJob
{
    std::string workload;  //!< benchmark alias for makeBenchmark()
    GpuConfig config;      //!< resolution and technique fully set
    SimOptions options;
    u64 sceneSeed = 1;     //!< content seed; keep fixed across
                           //!< techniques so comparisons are fair

    /** When set, replay this trace file (trace/trace_scene.hh)
     *  instead of generating the scene from `workload`. */
    std::string tracePath;
    /** First trace frame of this job's replay window (frame-range
     *  sharding); options.frames is the window length. */
    u64 traceFirstFrame = 0;
};

/**
 * Mix @p baseSeed with a workload alias (and an optional salt such as
 * a repetition index) into a per-job scene seed. splitmix64-style
 * finalization keeps nearby inputs decorrelated while staying
 * bit-reproducible across platforms.
 */
u64 deriveJobSeed(u64 baseSeed, const std::string &alias, u64 salt = 0);

/**
 * Strict decimal parse of a numeric CLI flag value. A typo must not
 * silently become 0 or a partial prefix — anything that is not a
 * plain in-range decimal calls fatal() naming @p flag.
 */
u64 parseCountArg(const char *flag, const char *text);

/** parseCountArg specialised for --jobs (must also fit unsigned). */
unsigned parseJobsArg(const char *text);

/** parseCountArg specialised for --tile-jobs: a positive intra-frame
 *  worker count. 0 is rejected — unlike --jobs there is no "all
 *  cores" convention here, and a silently-accepted 0 would read as
 *  "disable the pool" to some users and "auto" to others. */
unsigned parseTileJobsArg(const char *text);

/** parseCountArg specialised for --frames: a run of at least one
 *  frame. 0 is rejected — a run of no frames has no rates to report
 *  and every per-frame average divides by zero. */
u64 parseFramesArg(const char *text);

/** parseCountArg specialised for --width/--height: a screen
 *  dimension in 1..UINT32_MAX, so a wider value can never wrap into
 *  GpuConfig's u32 fields. */
u32 parseDimensionArg(const char *flag, const char *text);

/** Parse a --tech list: comma-separated technique names
 *  ("base"/"baseline", "re", "te", "memo"). fatal() on an unknown
 *  name or an empty list. Shared by the CLI frontends. */
std::vector<Technique> parseTechniqueListArg(const std::string &list);

/** Parse a hash-kind name ("crc32", "xor", "add", "fnv"); fatal() on
 *  anything else. Shared by the CLI frontends. */
HashKind parseHashArg(const std::string &name);

/**
 * Flatten a (workload x technique) sweep into a job vector, outer
 * loop over aliases, inner over techniques. Every cell shares the
 * same scene seed so techniques see identical content.
 */
std::vector<SimJob>
buildSweepJobs(const std::vector<std::string> &aliases,
               const std::vector<Technique> &techniques,
               u32 screenWidth, u32 screenHeight, u64 frames,
               HashKind hashKind = HashKind::Crc32, u64 sceneSeed = 1);

/**
 * Record one trace per distinct workload of @p jobs into @p dir (file
 * name: `<alias>.rgputrace`), each at that job's resolution, frame
 * count and scene seed. Replaying these traces reproduces the jobs'
 * SimResults bit-for-bit. Techniques share one trace: the command
 * stream does not depend on the technique.
 */
void recordSweepTraces(const std::vector<SimJob> &jobs,
                       const std::string &dir);

/**
 * Point every job of @p jobs at `dir/<alias>.rgputrace` instead of
 * live generation. Each job adopts the trace's recorded resolution
 * and tile grid (warn() when that differs from the job's request —
 * bit-identical replay requires simulating what was captured);
 * fatal() when a trace is missing or holds fewer frames than the job
 * needs.
 */
void retargetJobsToTraces(std::vector<SimJob> &jobs,
                          const std::string &dir);

/**
 * Apply the ExperimentScale-style trace flags to a job vector:
 * recordSweepTraces into @p recordDir when set, then
 * retargetJobsToTraces from @p replayDir when set (record-then-replay
 * of the same directory round-trips). Empty strings are no-ops. The
 * single entry point every sweep frontend (suite_cli, paper_figures,
 * the ablation benches) shares.
 */
void applyTraceFlags(std::vector<SimJob> &jobs,
                     const std::string &recordDir,
                     const std::string &replayDir);

/**
 * Shard one trace replay into @p shards jobs over contiguous,
 * disjoint frame ranges (the trace's index table makes each shard's
 * first-frame seek O(1)). All shards share @p config's technique and
 * @p options; resolution and tile grid are adopted from the trace.
 * Useful for throughput-oriented scans of long captures; note the
 * per-shard signature history restarts at each range boundary, so a
 * merged shard run matches a contiguous run only on frame counts,
 * not on every redundancy metric.
 */
std::vector<SimJob>
buildReplayShards(const std::string &tracePath, const GpuConfig &config,
                  const SimOptions &options, unsigned shards);

/** One live-progress sample: cell @p jobIndex just finished. */
struct ProgressUpdate
{
    std::size_t done = 0;      //!< cells finished so far (monotone)
    std::size_t total = 0;     //!< cells in the sweep
    std::size_t jobIndex = 0;  //!< index of the cell that finished
    double cellSeconds = 0;    //!< wall time of that cell
    double ewmaCellSeconds = 0;//!< smoothed per-cell time
    double etaSeconds = 0;     //!< remaining / effective parallelism
};

/** Invoked once per finished cell with its progress sample and its
 *  result, on the thread that called ParallelRunner::run, in job
 *  order. Later cells may still be running on workers, so the
 *  callback must not call fatal(). */
using CellDoneFn =
    std::function<void(const ProgressUpdate &, const SimResult &)>;

/**
 * Folds per-cell wall times into EWMA + ETA progress samples. Not
 * thread-safe: ParallelRunner calls cellDone() from its in-order
 * merge, which runs on one thread.
 */
class ProgressTracker
{
  public:
    /** @param workers effective parallelism for the ETA estimate. */
    explicit ProgressTracker(std::size_t total, unsigned workers = 1)
        : total_(total), workers_(workers == 0 ? 1 : workers)
    {}

    /** Fold one finished cell and return the sample to render. */
    ProgressUpdate cellDone(std::size_t jobIndex, double seconds);

  private:
    std::size_t total_;
    unsigned workers_;
    std::size_t done_ = 0;
    double ewma_ = 0;
    static constexpr double alpha = 0.3;  //!< EWMA smoothing factor
};

/**
 * Fixed-size worker pool over a job vector.
 */
class ParallelRunner
{
  public:
    /** @param jobs worker threads; 0 means hardware concurrency. */
    explicit ParallelRunner(unsigned jobs = 1);

    /** Worker threads the pool will actually spawn. */
    unsigned workerCount() const { return workers; }

    /**
     * Run every job and return results in job order. Unknown workload
     * aliases are rejected with fatal() on the calling thread before
     * any worker starts; any exception thrown by a running job is
     * captured and rethrown on the caller thread after the pool
     * drains.
     *
     * @p onDone, when set, sees cell i on the calling thread once
     * cells 0..i have all finished, so its calls arrive in job order
     * with done counts 1..N while later cells are still running. It
     * observes execution only — results stay bit-identical for any
     * worker count.
     */
    std::vector<SimResult> run(const std::vector<SimJob> &jobs,
                               const CellDoneFn &onDone = {}) const;

  private:
    unsigned workers;
};

/**
 * Fold a result vector into one aggregate SimResult (left fold in
 * vector order, so the merge is independent of how the results were
 * produced). Counters, cycles, energy, traffic and the raw stat
 * registries are summed; equalTilesConsecutivePct is re-averaged
 * weighted by frame count. The workload field becomes the common
 * alias, or "merged" when the inputs span several workloads; when the
 * inputs span several techniques the label gains a " (mixed
 * techniques)" suffix (the technique field keeps the first input's
 * value — the enum has no mixed state).
 */
SimResult mergeResults(const std::vector<SimResult> &results);

} // namespace regpu

#endif // REGPU_SIM_PARALLEL_RUNNER_HH
