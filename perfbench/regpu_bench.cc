/**
 * @file
 * regpu_bench: the seeded end-to-end and per-layer benchmark driver.
 *
 *   regpu_bench --workload static2d|light3d|paper_sweep --seed N
 *               --seconds S --trace 0|1
 *
 * A workload is a fixed list of cells (scene x content seed x
 * technique) run back to back by one process, a closed loop. The
 * driver repeats whole rounds of cells until the next round would pass
 * --seconds (at least minRounds), so every round has the same mix, and
 * reports every repetition of every cell. Each cell builds a fresh
 * Simulator, so the modelled caches start empty in every cell.
 *
 * --trace 0 times Simulator::run, with one clock read per emitFrame
 * for per-frame host times. --trace 1 runs each cell three ways:
 * Simulator::run, the same call sequence driven directly through
 * renderFrame/endFrame, and that direct drive with every public
 * virtual interface wrapped in the timing decorators of
 * layer_trace.hh.
 *
 * Human-readable lines go to stdout first; the last stdout line is
 * one JSON object of raw sums that run.py turns into metrics.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "layer_trace.hh"
#include "memo/fragment_memo.hh"
#include "re/rendering_elimination.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "te/transaction_elimination.hh"
#include "timing/memsystem.hh"
#include "workloads/workloads.hh"

using namespace regpu;
using namespace perfbench;

namespace
{

struct WorkloadSpec
{
    std::string name;
    std::string why;
    std::vector<std::string> scenes;
    std::vector<Technique> techniques;
    u32 width, height;
    unsigned tileJobs;
    u64 framesPerCell;
    u32 sceneSeeds; //!< content seeds per scene, derived from --seed
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    const Technique B = Technique::Baseline;
    const Technique R = Technique::RenderingElimination;
    const Technique T = Technique::TransactionElimination;
    const Technique M = Technique::FragmentMemoization;
    static const std::vector<WorkloadSpec> specs{
        {"static2d",
         "high-redundancy 2D apps: full-screen textured layers put "
         "86-95% of a frame in raster/shade/sampling and the texel "
         "cache model; geometry under 2%",
         {"ccs", "cde", "ctr", "hop"}, {B, R}, 598, 384, 1, 10, 1},
        {"light3d",
         "3D scenes with small screen coverage and ~8 ms frames: "
         "geometry, RE primitive signatures and Simulator per-frame "
         "bookkeeping are a visible share",
         {"coc", "csn", "tib"}, {B, R}, 598, 384, 1, 24, 3},
        {"paper_sweep",
         "the Figs. 14-17 sweep: every scene under Baseline, RE, TE "
         "and Memo on 3 tile workers; the only workload using the "
         "tile pool's merge replay and TE's flush path",
         {"ccs", "cde", "coc", "ctr", "hop", "abi", "csn", "mst", "ter",
          "tib"},
         {B, R, T, M}, 256, 160, 3, 8, 1},
    };
    return specs;
}

constexpr int minRounds = 4;
constexpr std::size_t minFrameSamples = 200;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "regpu_bench: %s\nusage: regpu_bench --workload "
                 "static2d|light3d|paper_sweep --seed N --seconds S "
                 "--trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else {
            usage("unknown flag " + flag);
        }
        if (end && (*end != '\0' || end == value.c_str()))
            usage("malformed number for " + flag + ": " + value);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

const WorkloadSpec &
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs())
        if (s.name == name)
            return s;
    usage("unknown workload " + name);
}

std::string
techTag(Technique t)
{
    switch (t) {
      case Technique::Baseline: return "base";
      case Technique::RenderingElimination: return "re";
      case Technique::TransactionElimination: return "te";
      case Technique::FragmentMemoization: return "memo";
    }
    return "?";
}

/** One scene x content seed x technique. */
struct Cell
{
    std::string alias;
    u64 sceneSeed;
    Technique tech;
    std::string scene; //!< alias, plus the content-seed index if several

    std::string name() const { return scene + "." + techTag(tech); }
};

/** The workload's cells in run order. Baseline comes first for each
 *  scene, because RE's front buffer is checked against Baseline's. */
std::vector<Cell>
workloadCells(const WorkloadSpec &spec, u64 seed)
{
    std::vector<Cell> cells;
    for (const std::string &alias : spec.scenes) {
        for (u32 k = 0; k < spec.sceneSeeds; k++) {
            const std::string scene = spec.sceneSeeds > 1
                ? alias + "#" + std::to_string(k)
                : alias;
            for (Technique tech : spec.techniques)
                cells.push_back(
                    {alias, deriveJobSeed(seed, alias, k), tech, scene});
        }
    }
    return cells;
}

GpuConfig
cellConfig(const WorkloadSpec &spec, Technique tech)
{
    GpuConfig cfg;
    cfg.scaleResolution(spec.width, spec.height);
    cfg.technique = tech;
    cfg.validate();
    return cfg;
}

/** Records when each emitFrame starts, and optionally how long it
 *  takes (trace mode only: the untraced run pays one clock read). */
class FrameClock : public FrameSource
{
  public:
    FrameClock(const FrameSource &inner_, bool timeEmit_)
        : inner(inner_), timeEmit(timeEmit_)
    {}
    const std::string &name() const override { return inner.name(); }
    const std::vector<Texture> &
    textures() const override
    {
        return inner.textures();
    }
    FrameCommands
    emitFrame(u64 frame) const override
    {
        const u64 t0 = nowNs();
        starts.push_back(t0);
        FrameCommands cmds = inner.emitFrame(frame);
        if (timeEmit)
            emitNs += nowNs() - t0;
        return cmds;
    }

    mutable std::vector<u64> starts;
    mutable u64 emitNs = 0;

  private:
    const FrameSource &inner;
    bool timeEmit;
};

volatile u32 gaugeSink; //!< keeps the gauge's walk from being elided

/**
 * Wall time of a fixed piece of work that does not involve regpu:
 * allocate and fill 1 MiB, then a data-dependent walk over it. Taken
 * before every cell repetition, it measures how fast the shared host
 * runs at that moment (run.py normalises host times by it).
 */
double
gaugeMs()
{
    const u64 t0 = nowNs();
    constexpr u32 mask = (1u << 18) - 1;
    std::vector<u32> buf(mask + 1);
    for (u32 i = 0; i <= mask; i++)
        buf[i] = i * 2654435761u;
    u32 x = 0x2545F491u, acc = 0;
    for (int i = 0; i < 300000; i++) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        acc += buf[x & mask];
        buf[(x >> 7) & mask] ^= acc;
    }
    const u64 t1 = nowNs();
    gaugeSink = acc;
    return static_cast<double>(t1 - t0) * 1e-6;
}

/** Failed correctness checks, each naming its cell. */
struct Checks
{
    u64 attempted = 0;
    u64 failedCells = 0;
    std::vector<std::string> failures;

    /** Record the outcome of one cell's checks. */
    void
    cell(const std::string &cellName, const std::vector<std::string> &bad)
    {
        attempted++;
        if (bad.empty())
            return;
        failedCells++;
        for (const std::string &b : bad) {
            failures.push_back(cellName + ": " + b);
            std::printf("CHECK FAILED %s: %s\n", cellName.c_str(),
                        b.c_str());
        }
    }
};

std::vector<Color>
frontBuffer(GraphicsPipeline &pipe)
{
    FrameBuffer &fb = pipe.frameBuffer();
    const GpuConfig &cfg = pipe.gpuConfig();
    std::vector<Color> px;
    px.reserve(fb.pixelCount());
    for (u32 y = 0; y < cfg.screenHeight; y++)
        for (u32 x = 0; x < cfg.screenWidth; x++)
            px.push_back(fb.frontPixel(x, y));
    return px;
}

/** Simulated results of one cell that later rounds must repeat. */
struct SimSummary
{
    Cycles cycles = 0;
    double energy = 0;
    u64 dramBytes = 0;
    u64 tilesSkipped = 0;
    u64 tilesTotal = 0;
    u64 falsePositives = 0;

    bool operator==(const SimSummary &) const = default;
};

/** State carried across rounds for the cross-cell checks. */
struct CrossCell
{
    std::map<std::string, std::vector<Color>> baselineFront;
    std::map<std::string, SimSummary> firstRound;
};

struct CellRun
{
    SimResult result;
    double setupS = 0;
    double runS = 0;
    u64 emitNs = 0;
    std::vector<double> frameMs;
    std::vector<std::string> failedChecks;
};

/** makeBenchmark + Simulator construction (timed as set-up), then
 *  Simulator::run (timed as run), then the per-cell checks. */
CellRun
runSimulatorCell(const WorkloadSpec &spec, const Cell &c, bool timeEmit,
                 CrossCell &cross)
{
    const GpuConfig cfg = cellConfig(spec, c.tech);
    SimOptions opts;
    opts.frames = spec.framesPerCell;
    opts.tileJobs = spec.tileJobs;

    CellRun cell;
    const u64 s0 = nowNs();
    std::unique_ptr<Scene> scene = makeBenchmark(c.alias, cfg, c.sceneSeed);
    FrameClock clock(*scene, timeEmit);
    Simulator sim(clock, cfg, opts);
    const u64 r0 = nowNs();
    cell.result = sim.run();
    const u64 r1 = nowNs();
    cell.setupS = static_cast<double>(r0 - s0) * 1e-9;
    cell.runS = static_cast<double>(r1 - r0) * 1e-9;
    cell.emitNs = clock.emitNs;
    for (std::size_t i = 0; i < clock.starts.size(); i++) {
        const u64 end =
            i + 1 < clock.starts.size() ? clock.starts[i + 1] : r1;
        cell.frameMs.push_back(
            static_cast<double>(end - clock.starts[i]) * 1e-6);
    }

    const SimResult &r = cell.result;
    std::vector<std::string> &bad = cell.failedChecks;
    if (r.frames != spec.framesPerCell
        || clock.starts.size() != spec.framesPerCell)
        bad.push_back("returned " + std::to_string(clock.starts.size())
                      + " of " + std::to_string(spec.framesPerCell)
                      + " frames");
    if (r.reFalsePositives != 0)
        bad.push_back("re.falsePositives = "
                      + std::to_string(r.reFalsePositives));
    if (u64 v = r.stats.counter("mem.conservationViolations"))
        bad.push_back("mem.conservationViolations = " + std::to_string(v));

    if (c.tech == Technique::Baseline) {
        cross.baselineFront[c.scene] = frontBuffer(sim.pipeline());
    } else if (c.tech == Technique::RenderingElimination) {
        auto it = cross.baselineFront.find(c.scene);
        if (it == cross.baselineFront.end()
            || it->second != frontBuffer(sim.pipeline()))
            bad.push_back("final front buffer differs from Baseline's");
    }

    SimSummary sum{r.totalCycles(), r.energy.total(), r.traffic.total(),
                   r.tilesSkippedByRe, r.tilesTotal, r.reFalsePositives};
    auto [first, inserted] = cross.firstRound.emplace(c.name(), sum);
    if (!inserted && first->second != sum)
        bad.push_back("simulated results differ from the first round's");
    return cell;
}

// ---------------------------------------------------------------------
// Direct drive: Simulator's call sequence through public entry points.
// ---------------------------------------------------------------------

/** A benchmark-owned MemSystem + GraphicsPipeline + technique, wired
 *  the way Simulator wires them; with a LayerClock every interface is
 *  wrapped in its timing decorator. */
class DirectRig
{
  public:
    DirectRig(const GpuConfig &cfg, const FrameSource &source,
              unsigned tileJobs, LayerClock *clock)
        : config(cfg), mem(config)
    {
        MemTraceSink *sink = &mem;
        if (clock) {
            timedMem = std::make_unique<TimedMemSink>(
                mem, *clock, config.textureCache.lineBytes,
                mem.numTextureCaches());
            sink = timedMem.get();
        }
        pipe = std::make_unique<GraphicsPipeline>(config, stats, sink,
                                                  source.textures());
        if (tileJobs > 1)
            pipe->setTileJobs(tileJobs);

        Layer other = HookOther, flush = HookOther;
        switch (config.technique) {
          case Technique::Baseline:
            if (clock)
                tech = std::make_unique<BaselineHooks>();
            break;
          case Technique::RenderingElimination:
            tech = std::make_unique<RenderingElimination>(config, stats);
            other = flush = ReSig;
            break;
          case Technique::TransactionElimination:
            tech = std::make_unique<TransactionElimination>(config, stats);
            flush = TeFlush;
            break;
          case Technique::FragmentMemoization:
            tech = std::make_unique<FragmentMemoization>(config, stats);
            break;
        }
        PipelineHooks *hooks = tech.get();
        if (clock && tech) {
            timedHooks = std::make_unique<TimedHooks>(*tech, *clock,
                                                      *timedMem, other, flush);
            hooks = timedHooks.get();
        }
        pipe->setHooks(hooks);
    }
    // The pipeline and hooks hold references to the members.
    DirectRig(const DirectRig &) = delete;
    DirectRig &operator=(const DirectRig &) = delete;

    GpuConfig config;
    StatRegistry stats;
    MemSystem mem;
    std::unique_ptr<TimedMemSink> timedMem;
    std::unique_ptr<PipelineHooks> tech;
    std::unique_ptr<TimedHooks> timedHooks;
    std::unique_ptr<GraphicsPipeline> pipe;
};

/** Counters the traced and untraced passes must agree on. */
std::vector<std::string>
compareCounters(const char *pass, const SimResult &ref, DirectRig &rig)
{
    std::vector<std::string> bad;
    const u64 fragsRef = ref.stats.counter("raster.fragmentsGenerated");
    const u64 frags = rig.stats.counter("raster.fragmentsGenerated");
    if (frags != fragsRef)
        bad.push_back(std::string(pass) + " fragments " +
                      std::to_string(frags) + " != Simulator's " +
                      std::to_string(fragsRef));
    const DramTraffic &t = rig.mem.dram().traffic();
    for (TrafficClass c : {TrafficClass::Geometry, TrafficClass::Primitives,
                           TrafficClass::Texels, TrafficClass::Colors}) {
        if (t.reads(c) != ref.traffic.reads(c)
            || t.writes(c) != ref.traffic.writes(c)
            || t.writebacks(c) != ref.traffic.writebacks(c))
            bad.push_back(std::string(pass) + " DRAM bytes of class "
                          + std::to_string(static_cast<int>(c))
                          + " differ from Simulator's");
    }
    return bad;
}

/** Sums of the traced run over all its cells: counts and untraced
 *  timings in `v`, layer sums per interval for the estimates. */
struct TraceSums
{
    std::map<std::string, double> v;
    ThreadAcc geometry; //!< calling thread, frameBegin..geometryDone
    ThreadAcc raster;   //!< calling thread, geometryDone..frameEnd
    ThreadAcc caller;   //!< calling thread, whole pass
    ThreadAcc all;      //!< every thread, whole pass

    void add(const std::string &k, double x) { v[k] += x; }
};

const char *
layerKey(Layer l)
{
    switch (l) {
      case Emit: return "emit";
      case Mem: return "mem";
      case EndFrame: return "endframe";
      case ReSig: return "re_sig";
      case TeFlush: return "te_flush";
      case MemoLookups: return "memo_lut";
      case HookOther: return "hook_other";
      case NumLayers: break;
    }
    return "?";
}

/** One cell of the traced run: Simulator::run, the untraced direct
 *  drive, then the traced direct drive. */
void
traceCell(const WorkloadSpec &spec, const Cell &c, CrossCell &cross,
          Checks &checks, TraceSums &sums)
{
    CellRun a = runSimulatorCell(spec, c, true, cross);
    std::vector<std::string> bad = a.failedChecks;

    const GpuConfig cfg = cellConfig(spec, c.tech);
    const u64 frames = spec.framesPerCell;
    std::unique_ptr<Scene> scene = makeBenchmark(c.alias, cfg, c.sceneSeed);

    // ---- untraced direct drive -----------------------------------------
    {
        DirectRig rig(cfg, *scene, spec.tileJobs, nullptr);
        u64 emitNs = 0, renderNs = 0;
        for (u64 f = 0; f < frames; f++) {
            const u64 t0 = nowNs();
            FrameCommands cmds = scene->emitFrame(f);
            const u64 t1 = nowNs();
            rig.pipe->renderFrame(cmds, true);
            rig.mem.endFrame();
            const u64 t2 = nowNs();
            emitNs += t1 - t0;
            renderNs += t2 - t1;
        }
        rig.mem.flushResident();
        for (const std::string &b : compareCounters("direct", a.result, rig))
            bad.push_back(b);
        sums.add("direct_emit_ns", static_cast<double>(emitNs));
        sums.add("direct_render_ns", static_cast<double>(renderNs));
    }
    sums.add("sim_run_ns", a.runS * 1e9);
    sums.add("sim_emit_ns", static_cast<double>(a.emitNs));

    // ---- traced direct drive -------------------------------------------
    LayerClock clock;
    TimedSource source(*scene, clock);
    DirectRig rig(cfg, source, spec.tileJobs, &clock);
    TimedHooks &hooks = *rig.timedHooks;
    for (u64 f = 0; f < frames; f++) {
        const u64 t0 = nowNs();
        FrameCommands cmds = source.emitFrame(f);
        rig.pipe->renderFrame(cmds, true);
        rig.timedMem->flush();
        {
            Timed t(clock, EndFrame);
            rig.mem.endFrame();
        }
        const u64 t1 = nowNs();
        const PhaseMark &fb = hooks.frameBeginMark;
        const PhaseMark &gd = hooks.geometryDoneMark;
        const PhaseMark &fe = hooks.frameEndMark;
        sums.add("frame_ns", static_cast<double>(t1 - t0));
        sums.add("geometry_wall_ns", static_cast<double>(gd.t - fb.t));
        sums.add("raster_wall_ns", static_cast<double>(fe.t - gd.t));
        sums.geometry.addDelta(gd.acc, fb.acc);
        sums.raster.addDelta(fe.acc, gd.acc);
    }
    rig.mem.flushResident();
    for (const std::string &b : compareCounters("traced", a.result, rig))
        bad.push_back(b);
    if (hooks.frameBeginMark.t == 0)
        bad.push_back("traced pass saw no frameBegin");
    checks.cell(c.name(), bad);

    const ThreadAcc zero;
    sums.caller.addDelta(clock.caller(), zero);
    sums.all.addDelta(clock.total(), zero);
    sums.add("frames", static_cast<double>(frames));
    sums.add(techTag(c.tech) + "_frames", static_cast<double>(frames));
    sums.add("primitives", static_cast<double>(hooks.primitivesBinned));
    sums.add("fragments", static_cast<double>(
        rig.stats.counter("raster.fragmentsGenerated")));
    sums.add("texel_fetches", static_cast<double>(rig.timedMem->texelFetches));
    sums.add("texel_mru_rehits",
             static_cast<double>(rig.timedMem->texelMruRehits));
    for (u32 i = 0; i < rig.mem.numTextureCaches(); i++) {
        sums.add("texcache_hits",
                 static_cast<double>(rig.mem.textureCacheRef(i).hits()));
        sums.add("texcache_accesses", static_cast<double>(
            rig.mem.textureCacheRef(i).accesses()));
    }
    sums.add("l2_hits", static_cast<double>(rig.mem.l2Ref().hits()));
    sums.add("l2_accesses", static_cast<double>(rig.mem.l2Ref().accesses()));
    for (const char *k : {"re.signatureCompares", "re.tilesSkipped",
                          "te.signatureCompares", "te.flushesEliminated",
                          "memo.lookups", "memo.hits"})
        sums.add(k, static_cast<double>(rig.stats.counter(k)));
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
num(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
numList(const std::vector<double> &xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); i++) {
        if (i)
            out += ',';
        out += num(xs[i]);
    }
    return out + "]";
}

std::string
numObject(const std::map<std::string, double> &kv)
{
    std::string out = "{";
    for (const auto &[k, x] : kv) {
        if (out.size() > 1)
            out += ',';
        out += quoted(k);
        out += ':';
        out += num(x);
    }
    return out + "}";
}

double
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

std::string
checksJson(const Checks &checks)
{
    std::string out = "\"attempted\":" + std::to_string(checks.attempted)
        + ",\"failed\":" + std::to_string(checks.failedCells)
        + ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); i++) {
        if (i)
            out += ',';
        out += quoted(checks.failures[i]);
    }
    return out + "]";
}

/** Untraced pass: rounds of Simulator::run cells. Every repetition
 *  of every cell is reported; run.py picks the fastest half. */
std::string
runUntraced(const WorkloadSpec &spec, const Args &args)
{
    struct CellReps
    {
        u64 fragments = 0;
        std::vector<double> setupS, runS, gauge;
        std::vector<std::vector<double>> frameMs;
    };
    const std::vector<Cell> cells = workloadCells(spec, args.seed);
    std::vector<CellReps> reps(cells.size());

    CrossCell cross;
    Checks checks;
    std::map<std::string, double> sim;
    const u64 start = nowNs();
    const u64 framesPerRound = cells.size() * spec.framesPerCell;
    for (int round = 1;; round++) {
        const u64 r0 = nowNs();
        for (std::size_t i = 0; i < cells.size(); i++) {
            const double g = gaugeMs();
            CellRun cell = runSimulatorCell(spec, cells[i], false, cross);
            reps[i].gauge.push_back(g);
            checks.cell(cells[i].name(), cell.failedChecks);
            CellReps &rep = reps[i];
            rep.setupS.push_back(cell.setupS);
            rep.runS.push_back(cell.runS);
            rep.frameMs.push_back(std::move(cell.frameMs));
            const SimResult &r = cell.result;
            rep.fragments = r.stats.counter("raster.fragmentsGenerated");
            if (round > 1)
                continue;
            const std::string t = techTag(cells[i].tech);
            sim[t + "_cycles"] += static_cast<double>(r.totalCycles());
            sim[t + "_energy_pj"] += r.energy.total();
            sim[t + "_dram_bytes"] += static_cast<double>(r.traffic.total());
            sim[t + "_tiles_total"] += static_cast<double>(r.tilesTotal);
            sim[t + "_tiles_skipped"] +=
                static_cast<double>(r.tilesSkippedByRe);
            sim["false_positives"] += static_cast<double>(r.reFalsePositives);
        }
        const double lastRound = static_cast<double>(nowNs() - r0) * 1e-9;
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        // The kept (fastest) half of the repetitions must still hold
        // minFrameSamples frames.
        if (round >= minRounds
            && static_cast<u64>(round) * framesPerRound
                   >= 2 * minFrameSamples
            && elapsed + lastRound > args.seconds) {
            std::printf("untraced: %d rounds of %zu cells, %llu failed\n",
                        round, cells.size(),
                        static_cast<unsigned long long>(checks.failedCells));
            break;
        }
    }

    std::string cellsJson = "[";
    for (std::size_t i = 0; i < cells.size(); i++) {
        const CellReps &c = reps[i];
        if (i)
            cellsJson += ',';
        std::string frames = "[";
        for (const std::vector<double> &f : c.frameMs) {
            if (frames.size() > 1)
                frames += ',';
            frames += numList(f);
        }
        cellsJson += "{\"cell\":" + quoted(cells[i].name()) + ",\"baseline\":"
            + (cells[i].tech == Technique::Baseline ? "true" : "false")
            + ",\"fragments\":" + std::to_string(c.fragments)
            + ",\"setup_s\":" + numList(c.setupS)
            + ",\"run_s\":" + numList(c.runS)
            + ",\"gauge_ms\":" + numList(c.gauge) + ",\"frame_ms\":" + frames
            + "]}";
    }
    cellsJson += "]";
    return "{\"mode\":\"untraced\"," + checksJson(checks)
        + ",\"cells\":" + cellsJson + ",\"sim\":" + numObject(sim)
        + ",\"peak_rss_kb\":" + num(peakRssKb()) + "}";
}

/**
 * Derive layer self-times from the traced sums. An interval's self
 * time is its wall time minus its children's estimated self-time and
 * minus the whole cost of every probe taken inside it.
 * The closure check compares the frame time with everything charged.
 */
void
deriveLayerTimes(TraceSums &sums, const ProbeCost &probe)
{
    // Instrumentation cost charged to an interval: every probe taken
    // in it, plus recording each mem event it batched.
    auto probeNs = [&](const ThreadAcc &a, auto layers) {
        double ns = 0;
        for (Layer l : layers)
            ns += static_cast<double>(a.probes[l]);
        return (probe.inNs + probe.outNs) * ns
            + probe.recordNs * static_cast<double>(a.calls[Mem]);
    };
    auto childNs = [&](const ThreadAcc &a) {
        double ns = 0;
        for (Layer l : renderChildren)
            ns += estimateNs(a, l, probe);
        return ns;
    };
    const double geometryNs = sums.v["geometry_wall_ns"]
        - childNs(sums.geometry) - probeNs(sums.geometry, renderChildren);
    const double rasterNs = sums.v["raster_wall_ns"]
        - childNs(sums.raster) - probeNs(sums.raster, renderChildren);
    sums.v["geometry_ns"] = geometryNs;
    sums.v["raster_ns"] = rasterNs;
    sums.v["merge_busy_ns"] = childNs(sums.raster);

    double callerNs = 0;
    std::array<Layer, NumLayers> layers;
    for (unsigned l = 0; l < NumLayers; l++) {
        layers[l] = static_cast<Layer>(l);
        sums.v[std::string(layerKey(layers[l])) + "_ns"] =
            estimateNs(sums.all, layers[l], probe);
        callerNs += estimateNs(sums.caller, layers[l], probe);
    }
    const double callerProbeNs = probeNs(sums.caller, layers);
    sums.v["probe_ns"] = callerProbeNs;
    sums.v["unaccounted_ns"] = sums.v["frame_ns"]
        - (geometryNs + rasterNs + callerNs + callerProbeNs);
}

/** Traced pass: rounds of traceCell. */
std::string
runTraced(const WorkloadSpec &spec, const Args &args)
{
    CrossCell cross;
    Checks checks;
    TraceSums sums;
    const std::vector<Cell> cells = workloadCells(spec, args.seed);
    const ProbeCost probe = calibrateProbe();
    const u64 start = nowNs();
    int rounds = 0;
    for (;;) {
        const u64 r0 = nowNs();
        for (const Cell &c : cells)
            traceCell(spec, c, cross, checks, sums);
        rounds++;
        const double lastRound = static_cast<double>(nowNs() - r0) * 1e-9;
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        if (elapsed + lastRound > args.seconds)
            break;
    }
    deriveLayerTimes(sums, probe);
    std::printf("traced: %d rounds, %llu cells, %llu failed; probe %.1f ns "
                "inside + %.1f ns outside, %.1f ns per mem event\n",
                rounds, static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failedCells),
                probe.inNs, probe.outNs, probe.recordNs);
    return "{\"mode\":\"traced\"," + checksJson(checks)
        + ",\"sums\":" + numObject(sums.v) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec &spec = findSpec(args.workload);

    std::printf("workload %s (seed %llu, %ux%u, tile-jobs %u, %llu frames "
                "per cell, %u content seeds per scene, caches start empty "
                "in every cell)\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                spec.width, spec.height, spec.tileJobs,
                static_cast<unsigned long long>(spec.framesPerCell),
                spec.sceneSeeds);
    std::printf("why: %s\n", spec.why.c_str());
    std::string line = args.trace ? runTraced(spec, args)
                                  : runUntraced(spec, args);
    std::printf("%s\n", line.c_str());
    return 0;
}
