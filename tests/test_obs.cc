/**
 * @file
 * The observability-layer contract (src/obs/):
 *
 *  - the timeline flush is strict RFC 8259 JSON in Chrome trace-event
 *    form, one event per line, with dense thread ids and metadata
 *    naming every thread;
 *  - spans are properly nested per thread (a frame span lies inside
 *    the run span; no partial overlaps), and ParallelRunner job spans
 *    carry the job index and technique as args;
 *  - enabling observability never changes simulation results: the
 *    serialized CSV rows are byte-identical with the sink off, on,
 *    and on with 8 workers;
 *  - per-frame JSONL artifacts hold one strict-JSON line per frame
 *    with per-frame deltas (not running totals), and heatmap CSV/PPM
 *    dimensions match the configured tile grid;
 *  - rings drop (and count) on overflow instead of reallocating;
 *  - warnOnce() fires once per call site; ProgressTracker folds EWMA
 *    and ETA as documented.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

#include "strict_json.hh"

using namespace regpu;
using regpu::testutil::StrictJsonParser;

namespace
{

/** One decoded trace event (numeric fields re-parsed from raw text). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    std::string ph;
    long tid = -1;
    double ts = 0;
    double dur = 0;
    std::string rawArgs;
};

double
parseDouble(const std::string &text)
{
    return text.empty() ? 0.0 : std::strtod(text.c_str(), nullptr);
}

std::string
unquote(const std::string &text)
{
    if (text.size() >= 2 && text.front() == '"' && text.back() == '"')
        return text.substr(1, text.size() - 2);
    return text;
}

/**
 * Strict-parse a whole timeline document, then re-parse it line-wise:
 * the writer emits one event object per line, so every event can be
 * decoded as its own strict-JSON document.
 */
std::vector<TraceEvent>
parseTimeline(const std::string &doc)
{
    std::string error;
    StrictJsonParser whole(doc);
    EXPECT_TRUE(whole.parse(error)) << error;

    std::vector<TraceEvent> events;
    std::istringstream lines(doc);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"name\":", 0) != 0)
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        StrictJsonParser one(line);
        EXPECT_TRUE(one.parse(error)) << error << " in: " << line;
        TraceEvent e;
        e.name = unquote(one.topLevelValueText("name"));
        e.cat = unquote(one.topLevelValueText("cat"));
        e.ph = unquote(one.topLevelValueText("ph"));
        e.tid = std::strtol(
            one.topLevelValueText("tid").c_str(), nullptr, 10);
        e.ts = parseDouble(one.topLevelValueText("ts"));
        e.dur = parseDouble(one.topLevelValueText("dur"));
        e.rawArgs = one.topLevelValueText("args");
        events.push_back(std::move(e));
    }
    return events;
}

std::vector<SimJob>
smallJobs()
{
    return buildSweepJobs({"ccs"},
                          {Technique::Baseline,
                           Technique::RenderingElimination},
                          128, 80, /*frames=*/2);
}

std::string
flushTimeline()
{
    std::ostringstream os;
    ObsSink::instance().writeTraceJson(os);
    return os.str();
}

std::string
csvRows(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    bool header = true;
    for (const SimResult &r : results) {
        writeCsvRow(os, r, header);
        header = false;
    }
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing artifact: " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Fresh sink per test; never leak an enabled sink into the next. */
class ObsTest : public testing::Test
{
  protected:
    void TearDown() override { ObsSink::instance().disable(); }
};

} // namespace

TEST_F(ObsTest, DisabledSinkRecordsNothing)
{
    ObsSink::instance().disable();
    ParallelRunner runner(1);
    runner.run(smallJobs());
    const std::vector<TraceEvent> events =
        parseTimeline(flushTimeline());
    for (const TraceEvent &e : events)
        EXPECT_EQ(e.ph, "M") << "event recorded while disabled: "
                             << e.cat << "." << e.name;
}

TEST_F(ObsTest, TimelineParsesStrictlyAndSpansNest)
{
    ObsSink::instance().enable();
    ParallelRunner runner(1);
    runner.run(smallJobs());
    const std::vector<TraceEvent> events =
        parseTimeline(flushTimeline());

    std::map<long, std::vector<TraceEvent>> spansByTid;
    std::size_t runSpans = 0, frameSpans = 0, counterEvents = 0;
    for (const TraceEvent &e : events) {
        if (e.ph == "X")
            spansByTid[e.tid].push_back(e);
        if (e.ph == "X" && e.cat == "sim" && e.name == "run")
            runSpans++;
        if (e.ph == "X" && e.cat == "sim" && e.name == "frame")
            frameSpans++;
        if (e.ph == "C")
            counterEvents++;
    }
    EXPECT_EQ(runSpans, 2u);    // one per technique cell
    EXPECT_EQ(frameSpans, 4u);  // 2 cells x 2 frames
    EXPECT_GT(counterEvents, 0u);

    // Spans on one thread must nest like a call stack: any two are
    // either disjoint or one contains the other. The tolerance
    // absorbs the microsecond rounding of the ns clock.
    const double eps = 2e-3;
    for (const auto &[tid, spans] : spansByTid) {
        for (std::size_t i = 0; i < spans.size(); i++) {
            for (std::size_t j = i + 1; j < spans.size(); j++) {
                const TraceEvent &a = spans[i], &b = spans[j];
                const double aEnd = a.ts + a.dur, bEnd = b.ts + b.dur;
                const bool disjoint =
                    aEnd <= b.ts + eps || bEnd <= a.ts + eps;
                const bool aInB = a.ts >= b.ts - eps
                    && aEnd <= bEnd + eps;
                const bool bInA = b.ts >= a.ts - eps
                    && bEnd <= aEnd + eps;
                EXPECT_TRUE(disjoint || aInB || bInA)
                    << a.cat << "." << a.name << " [" << a.ts << ", "
                    << aEnd << ") partially overlaps " << b.cat << "."
                    << b.name << " [" << b.ts << ", " << bEnd
                    << ") on tid " << tid;
            }
        }
    }
}

TEST_F(ObsTest, ThreadIdsAreDenseAndNamed)
{
    ObsSink::instance().enable();
    ParallelRunner runner(4);
    runner.run(smallJobs());
    const std::vector<TraceEvent> events =
        parseTimeline(flushTimeline());

    std::set<long> eventTids, namedTids;
    for (const TraceEvent &e : events) {
        if (e.ph == "M" && e.name == "thread_name")
            namedTids.insert(e.tid);
        if (e.ph != "M")
            eventTids.insert(e.tid);
    }
    ASSERT_FALSE(eventTids.empty());
    // Dense: tids are exactly 0..N-1 (parked-ring reuse, no gaps).
    EXPECT_EQ(*eventTids.begin(), 0);
    EXPECT_EQ(*eventTids.rbegin(),
              static_cast<long>(eventTids.size()) - 1);
    for (long tid : eventTids)
        EXPECT_TRUE(namedTids.count(tid))
            << "tid " << tid << " has no thread_name metadata";
}

TEST_F(ObsTest, RunnerJobSpansCarryJobIndexAndTechnique)
{
    ObsSink::instance().enable();
    ParallelRunner runner(2);
    std::vector<ProgressUpdate> updates;
    runner.run(smallJobs(), [&](const ProgressUpdate &u, const SimResult &) {
        updates.push_back(u);
    });

    const std::vector<TraceEvent> events =
        parseTimeline(flushTimeline());
    std::set<std::string> jobArgs;
    for (const TraceEvent &e : events) {
        if (e.ph != "X" || e.cat != "runner")
            continue;
        EXPECT_EQ(e.name, "ccs");  // interned workload alias
        EXPECT_NE(e.rawArgs.find("\"tech\":"), std::string::npos);
        const std::size_t at = e.rawArgs.find("\"job\":");
        ASSERT_NE(at, std::string::npos);
        jobArgs.insert(e.rawArgs.substr(at, 8));
    }
    EXPECT_EQ(jobArgs.size(), 2u);  // both cells traced distinctly

    // Progress arrives in job order: done counts 1..N, update i for
    // job i, ETA shrinking to zero.
    ASSERT_EQ(updates.size(), 2u);
    for (std::size_t i = 0; i < updates.size(); i++) {
        EXPECT_EQ(updates[i].jobIndex, i);
        EXPECT_EQ(updates[i].done, i + 1);
    }
    EXPECT_EQ(updates[1].etaSeconds, 0.0);
}

TEST_F(ObsTest, ResultsByteIdenticalWithSinkOffOnAndParallel)
{
    const std::vector<SimJob> plain = smallJobs();

    ObsSink::instance().disable();
    const std::string off = csvRows(ParallelRunner(1).run(plain));

    // Full observability on: timeline, tile detail and artifacts.
    std::vector<SimJob> obsJobs = plain;
    for (SimJob &job : obsJobs)
        job.options.obsDir = testing::TempDir() + "regpu_obs_ident";
    ObsSink::instance().enable(ObsSink::defaultRingEvents,
                               /*tileDetail=*/true);
    const std::string on = csvRows(ParallelRunner(1).run(obsJobs));
    const std::string on8 = csvRows(ParallelRunner(8).run(obsJobs));

    EXPECT_EQ(off, on);
    EXPECT_EQ(off, on8);
}

TEST_F(ObsTest, PerFrameArtifactsMatchTileGridAndParse)
{
    const std::string dir = testing::TempDir() + "regpu_obs_art";
    const u64 frames = 3;

    GpuConfig config;
    config.scaleResolution(128, 80);  // 8x5 tiles of 16x16
    config.technique = Technique::RenderingElimination;
    {
        // Scoped: the artifact writer finalizes (totals, stream
        // close) when the simulator is destroyed.
        auto scene = makeBenchmark("ccs", config);
        SimOptions opts;
        opts.frames = frames;
        opts.obsDir = dir;
        opts.obsTag = "t";
        Simulator sim(*scene, config, opts);
        sim.run();
    }

    const u32 tilesX = config.tilesX(), tilesY = config.tilesY();
    ASSERT_EQ(tilesX, 8u);
    ASSERT_EQ(tilesY, 5u);

    // JSONL: one strict-JSON line per frame, delta-valued.
    std::ifstream jsonl(dir + "/t.frames.jsonl");
    ASSERT_TRUE(jsonl.good());
    std::string line, error;
    u64 lineNo = 0;
    while (std::getline(jsonl, line)) {
        StrictJsonParser parser(line);
        ASSERT_TRUE(parser.parse(error))
            << error << " in line " << lineNo;
        EXPECT_EQ(parser.topLevelValueText("frame"),
                  std::to_string(lineNo));
        EXPECT_EQ(parser.topLevelValueText("tag"), "\"t\"");
        // "frames" is a running total in the registry; the JSONL
        // stream must carry the per-frame delta, which is always 1.
        const std::string counters =
            parser.topLevelValueText("counters");
        EXPECT_NE(counters.find("\"frames\":1"), std::string::npos)
            << "not delta-valued: " << counters;
        lineNo++;
    }
    EXPECT_EQ(lineNo, frames);

    // Heatmap CSV (long format): frames x tiles rows, coordinates
    // exactly covering the tile grid.
    for (const char *metric : {"re", "te", "dram"}) {
        std::ifstream csv(dir + "/t.heat." + std::string(metric)
                          + ".csv");
        ASSERT_TRUE(csv.good()) << metric;
        std::string header;
        ASSERT_TRUE(std::getline(csv, header));
        EXPECT_EQ(header, "frame,tileX,tileY,value");
        u64 rows = 0;
        u32 maxX = 0, maxY = 0;
        while (std::getline(csv, line)) {
            unsigned long long frame, x, y;
            double value;
            ASSERT_EQ(std::sscanf(line.c_str(), "%llu,%llu,%llu,%lf",
                                  &frame, &x, &y, &value),
                      4)
                << line;
            (void)frame;
            maxX = std::max(maxX, static_cast<u32>(x));
            maxY = std::max(maxY, static_cast<u32>(y));
            rows++;
        }
        EXPECT_EQ(rows, frames * tilesX * tilesY) << metric;
        EXPECT_EQ(maxX, tilesX - 1) << metric;
        EXPECT_EQ(maxY, tilesY - 1) << metric;
    }

    // PPM: P6 header with the tile-grid dimensions and exactly one
    // RGB triplet per tile.
    for (const char *name :
         {"t.re.f0000.ppm", "t.re.total.ppm", "t.dram.f0002.ppm"}) {
        const std::string ppm = slurp(dir + "/" + name);
        const std::string header = "P6\n" + std::to_string(tilesX) + " "
            + std::to_string(tilesY) + "\n255\n";
        ASSERT_EQ(ppm.rfind(header, 0), 0u) << name;
        EXPECT_EQ(ppm.size(),
                  header.size() + 3ull * tilesX * tilesY) << name;
    }
}

TEST_F(ObsTest, RingOverflowDropsInsteadOfGrowing)
{
    ObsSink::instance().enable(/*eventsPerThread=*/64);
    for (int i = 0; i < 200; i++)
        ObsScope span("test", "overflow", "i", i);
    EXPECT_EQ(ObsSink::instance().droppedEvents(), 200u - 64u);

    // The flush must still be valid JSON and advertise the loss.
    const std::string doc = flushTimeline();
    std::string error;
    StrictJsonParser parser(doc);
    EXPECT_TRUE(parser.parse(error)) << error;
    EXPECT_NE(doc.find("\"droppedEvents\":\"136\""),
              std::string::npos);
}

TEST_F(ObsTest, WarnOnceFiresOncePerCallSite)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; i++)
        warnOnce("obs-test warn-once probe ", i);
    const std::string err = testing::internal::GetCapturedStderr();
    std::size_t hits = 0, at = 0;
    while ((at = err.find("warn-once probe", at)) != std::string::npos) {
        hits++;
        at++;
    }
    EXPECT_EQ(hits, 1u) << err;
    // The surviving message is the first call's ("... 0").
    EXPECT_NE(err.find("warn-once probe 0"), std::string::npos);
}

TEST_F(ObsTest, ProgressTrackerFoldsEwmaAndEta)
{
    ProgressTracker tracker(4, /*workers=*/2);

    ProgressUpdate u = tracker.cellDone(0, 2.0);
    EXPECT_EQ(u.done, 1u);
    EXPECT_EQ(u.total, 4u);
    EXPECT_DOUBLE_EQ(u.cellSeconds, 2.0);
    EXPECT_DOUBLE_EQ(u.ewmaCellSeconds, 2.0);  // first sample seeds
    EXPECT_DOUBLE_EQ(u.etaSeconds, 3.0);       // 3 cells / 2 lanes

    u = tracker.cellDone(1, 4.0);
    EXPECT_DOUBLE_EQ(u.ewmaCellSeconds, 0.3 * 4.0 + 0.7 * 2.0);
    EXPECT_DOUBLE_EQ(u.etaSeconds, u.ewmaCellSeconds);  // 2 / 2 lanes

    tracker.cellDone(2, 1.0);
    u = tracker.cellDone(3, 1.0);
    EXPECT_EQ(u.done, 4u);
    EXPECT_DOUBLE_EQ(u.etaSeconds, 0.0);
}
