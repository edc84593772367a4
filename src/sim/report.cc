#include "sim/report.hh"

#include <iomanip>

#include "obs/obs.hh"

namespace regpu
{

namespace
{

double
pct(u64 part, u64 whole)
{
    return whole ? 100.0 * part / whole : 0.0;
}

/**
 * RFC 4180 quoting for one CSV field: fields containing a comma,
 * quote, CR or LF are wrapped in double quotes with embedded quotes
 * doubled. Plain fields (every suite alias) pass through unchanged,
 * so existing artifacts are byte-identical.
 */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

using obs_detail::writeJsonDouble;
using obs_detail::writeJsonString;

struct ResultColumn
{
    const char *name;
    /** Writes the column's value for one run: counts as integers,
     *  doubles in round-trip form. */
    void (*print)(std::ostream &os, const SimResult &r);
};

/**
 * The result columns after the identity columns (workload, technique,
 * frames), in schema order: the one list that csvColumns(),
 * writeCsvRow and writeJsonRun walk. README.md's "Output schema"
 * table documents each column, and scripts/analyze.py (rule
 * csv-schema) keeps the two in step.
 */
const ResultColumn resultColumns[] = {
    {"geometryCycles", [](auto &os, auto &r) { os << r.geometryCycles; }},
    {"rasterCycles", [](auto &os, auto &r) { os << r.rasterCycles; }},
    {"totalCycles", [](auto &os, auto &r) { os << r.totalCycles(); }},
    {"energyGpuPj",
     [](auto &os, auto &r) { writeJsonDouble(os, r.energy.gpu()); }},
    {"energyMemPj",
     [](auto &os, auto &r) { writeJsonDouble(os, r.energy.memory()); }},
    {"energyTotalPj",
     [](auto &os, auto &r) { writeJsonDouble(os, r.energy.total()); }},
    {"dramGeometryB",
     [](auto &os, auto &r) { os << r.traffic[TrafficClass::Geometry]; }},
    {"dramPrimitivesB",
     [](auto &os, auto &r) { os << r.traffic[TrafficClass::Primitives]; }},
    {"dramTexelsB",
     [](auto &os, auto &r) { os << r.traffic[TrafficClass::Texels]; }},
    {"dramColorsB",
     [](auto &os, auto &r) { os << r.traffic[TrafficClass::Colors]; }},
    {"dramReadB", [](auto &os, auto &r) { os << r.traffic.totalReads(); }},
    {"dramWriteB", [](auto &os, auto &r) { os << r.traffic.totalWrites(); }},
    {"dramWritebackB",
     [](auto &os, auto &r) { os << r.traffic.totalWritebacks(); }},
    {"tilesTotal", [](auto &os, auto &r) { os << r.tilesTotal; }},
    {"tilesRendered", [](auto &os, auto &r) { os << r.tilesRendered; }},
    {"tilesSkipped", [](auto &os, auto &r) { os << r.tilesSkippedByRe; }},
    {"flushesElided",
     [](auto &os, auto &r) { os << r.tileFlushesEliminated; }},
    {"eqColorsEqInputs",
     [](auto &os, auto &r) { os << r.tileClasses.equalColorsEqualInputs; }},
    {"eqColorsDiffInputs",
     [](auto &os, auto &r) { os << r.tileClasses.equalColorsDiffInputs; }},
    {"diffColorsDiffInputs",
     [](auto &os, auto &r) { os << r.tileClasses.diffColorsDiffInputs; }},
    {"diffColorsEqInputs",
     [](auto &os, auto &r) { os << r.tileClasses.diffColorsEqualInputs; }},
    {"fragmentsShaded", [](auto &os, auto &r) { os << r.fragmentsShaded; }},
    {"fragmentsMemoReused",
     [](auto &os, auto &r) { os << r.fragmentsMemoReused; }},
    {"signatureStallCycles",
     [](auto &os, auto &r) { os << r.signatureStallCycles; }},
    {"falsePositives", [](auto &os, auto &r) { os << r.reFalsePositives; }},
    {"equalTilesConsecutivePct",
     [](auto &os, auto &r) {
         writeJsonDouble(os, r.equalTilesConsecutivePct);
     }},
};

} // namespace

void
printRunSummary(std::ostream &os, const SimResult &r,
                const GpuConfig &config)
{
    StreamFormatGuard guard(os);
    os << "== " << r.workload << " / " << techniqueName(r.technique)
       << " (" << r.frames << " frames, " << config.screenWidth << "x"
       << config.screenHeight << ") ==\n";

    os << "cycles      : total " << r.totalCycles() << " (geometry "
       << r.geometryCycles << ", raster " << r.rasterCycles << ")\n";
    double fps = r.totalCycles()
        ? static_cast<double>(config.frequencyHz) * r.frames
            / r.totalCycles()
        : 0.0;
    os << "throughput  : " << std::fixed << std::setprecision(1) << fps
       << " simulated fps at " << config.frequencyHz / 1e6 << " MHz\n";

    os << "energy      : total " << std::setprecision(3)
       << r.energy.total() * 1e-9 << " mJ (GPU "
       << r.energy.gpu() * 1e-9 << ", memory "
       << r.energy.memory() * 1e-9 << ")\n";

    os << "dram        : total " << r.traffic.total() / 1e6
       << " MB (geometry "
       << r.traffic[TrafficClass::Geometry] / 1e6 << ", primitives "
       << r.traffic[TrafficClass::Primitives] / 1e6 << ", texels "
       << r.traffic[TrafficClass::Texels] / 1e6 << ", colors "
       << r.traffic[TrafficClass::Colors] / 1e6 << ")\n";
    os << "dram dirs   : reads " << r.traffic.totalReads() / 1e6
       << " MB, writes " << r.traffic.totalWrites() / 1e6
       << " MB, writebacks " << r.traffic.totalWritebacks() / 1e6
       << " MB\n";

    os << "tiles       : " << r.tilesTotal << " processed, "
       << r.tilesRendered << " rendered, " << r.tilesSkippedByRe
       << " eliminated (" << std::setprecision(1)
       << pct(r.tilesSkippedByRe, r.tilesTotal) << "%), "
       << r.tileFlushesEliminated << " flushes elided\n";

    const TileClassCounts &tc = r.tileClasses;
    if (tc.comparedTiles) {
        os << "tile classes: eqC&eqI "
           << pct(tc.equalColorsEqualInputs, tc.comparedTiles)
           << "%, eqC&diffI "
           << pct(tc.equalColorsDiffInputs, tc.comparedTiles)
           << "%, diffC&diffI "
           << pct(tc.diffColorsDiffInputs, tc.comparedTiles)
           << "%, diffC&eqI "
           << pct(tc.diffColorsEqualInputs, tc.comparedTiles) << "%\n";
    }

    os << "fragments   : " << r.fragmentsShaded << " shaded, "
       << r.fragmentsMemoReused << " memo-reused\n";
    os << "overheads   : " << r.signatureStallCycles
       << " signature-stall cycles, " << r.reFalsePositives
       << " false positives\n";
    os << "fig2 metric : " << std::setprecision(1)
       << r.equalTilesConsecutivePct
       << "% tiles equal to the preceding frame\n";
}

void
printComparison(std::ostream &os, const std::vector<SimResult> &results)
{
    if (results.empty())
        return;
    StreamFormatGuard guard(os);
    const SimResult &base = results.front();
    os << "comparison for '" << base.workload << "' (normalized to "
       << techniqueName(base.technique) << ")\n";
    os << std::left << std::setw(10) << "technique" << std::right
       << std::setw(12) << "cycles" << std::setw(12) << "energy"
       << std::setw(12) << "dram" << std::setw(14) << "fragsShaded"
       << "\n";
    for (const SimResult &r : results) {
        auto norm = [](u64 v, u64 b) {
            return b ? static_cast<double>(v) / b : 0.0;
        };
        os << std::left << std::setw(10) << techniqueName(r.technique)
           << std::right << std::fixed << std::setprecision(3)
           << std::setw(12) << norm(r.totalCycles(), base.totalCycles())
           << std::setw(12)
           << (base.energy.total()
                   ? r.energy.total() / base.energy.total() : 0.0)
           << std::setw(12)
           << norm(r.traffic.total(), base.traffic.total())
           << std::setw(14)
           << norm(r.fragmentsShaded, base.fragmentsShaded) << "\n";
    }
}

const std::vector<std::string> &
csvColumns()
{
    static const std::vector<std::string> columns = [] {
        std::vector<std::string> names = {"workload", "technique",
                                          "frames"};
        for (const ResultColumn &c : resultColumns)
            names.emplace_back(c.name);
        return names;
    }();
    return columns;
}

void
writeJsonRun(std::ostream &os, const SimResult &r,
             const GpuConfig &config, u64 sceneSeed)
{
    os << "{\"workload\":";
    writeJsonString(os, r.workload);
    os << ",\"technique\":\"" << techniqueName(r.technique) << "\"";
    os << ",\"seed\":" << sceneSeed;
    os << ",\"frames\":" << r.frames;
    os << ",\"screenWidth\":" << config.screenWidth;
    os << ",\"screenHeight\":" << config.screenHeight;
    os << ",\"tileWidth\":" << config.tileWidth;
    os << ",\"tileHeight\":" << config.tileHeight;
    for (const ResultColumn &c : resultColumns) {
        os << ",\"" << c.name << "\":";
        c.print(os, r);
    }
    os << "}\n";
}

void
writeCsvRow(std::ostream &os, const SimResult &r, bool header)
{
    if (header) {
        const auto &cols = csvColumns();
        for (std::size_t i = 0; i < cols.size(); i++)
            os << cols[i] << (i + 1 < cols.size() ? "," : "\n");
    }
    os << csvEscape(r.workload) << "," << techniqueName(r.technique)
       << "," << r.frames;
    for (const ResultColumn &c : resultColumns) {
        os << ",";
        c.print(os, r);
    }
    os << "\n";
}

} // namespace regpu
