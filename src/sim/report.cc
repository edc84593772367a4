#include "sim/report.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>

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

/** Minimal JSON string escaping (quotes, backslashes, control
 *  chars) for writeJsonRun. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Append @p v to @p os as the shortest decimal string that parses
 * back to exactly the same double (std::to_chars round-trip
 * semantics). Locale-independent and immune to whatever
 * std::fixed/precision state the stream carries — the contract the
 * CSV and JSON artifacts rely on. Non-finite values are clamped to 0
 * ("inf"/"nan" are not valid JSON or CSV numbers).
 */
std::ostream &
writeRoundTripDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
    return os;
}

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
    static const std::vector<std::string> columns = {
        "workload", "technique", "frames", "geometryCycles",
        "rasterCycles", "totalCycles", "energyGpuPj", "energyMemPj",
        "energyTotalPj", "dramGeometryB", "dramPrimitivesB",
        "dramTexelsB", "dramColorsB", "dramReadB", "dramWriteB",
        "dramWritebackB", "tilesTotal", "tilesRendered",
        "tilesSkipped", "flushesElided", "eqColorsEqInputs",
        "eqColorsDiffInputs", "diffColorsDiffInputs",
        "diffColorsEqInputs", "fragmentsShaded", "fragmentsMemoReused",
        "signatureStallCycles", "falsePositives",
        "equalTilesConsecutivePct",
    };
    return columns;
}

void
writeJsonRun(std::ostream &os, const SimResult &r,
             const GpuConfig &config, u64 sceneSeed)
{
    os << "{";
    os << "\"workload\":\"" << jsonEscape(r.workload) << "\"";
    os << ",\"technique\":\"" << techniqueName(r.technique) << "\"";
    os << ",\"seed\":" << sceneSeed;
    os << ",\"frames\":" << r.frames;
    os << ",\"screenWidth\":" << config.screenWidth;
    os << ",\"screenHeight\":" << config.screenHeight;
    os << ",\"tileWidth\":" << config.tileWidth;
    os << ",\"tileHeight\":" << config.tileHeight;
    os << ",\"geometryCycles\":" << r.geometryCycles;
    os << ",\"rasterCycles\":" << r.rasterCycles;
    os << ",\"totalCycles\":" << r.totalCycles();
    writeRoundTripDouble(os << ",\"energyGpuPj\":", r.energy.gpu());
    writeRoundTripDouble(os << ",\"energyMemPj\":", r.energy.memory());
    writeRoundTripDouble(os << ",\"energyTotalPj\":",
                         r.energy.total());
    os << ",\"dramGeometryB\":" << r.traffic[TrafficClass::Geometry];
    os << ",\"dramPrimitivesB\":" << r.traffic[TrafficClass::Primitives];
    os << ",\"dramTexelsB\":" << r.traffic[TrafficClass::Texels];
    os << ",\"dramColorsB\":" << r.traffic[TrafficClass::Colors];
    os << ",\"dramReadB\":" << r.traffic.totalReads();
    os << ",\"dramWriteB\":" << r.traffic.totalWrites();
    os << ",\"dramWritebackB\":" << r.traffic.totalWritebacks();
    os << ",\"tilesTotal\":" << r.tilesTotal;
    os << ",\"tilesRendered\":" << r.tilesRendered;
    os << ",\"tilesSkipped\":" << r.tilesSkippedByRe;
    os << ",\"flushesElided\":" << r.tileFlushesEliminated;
    os << ",\"eqColorsEqInputs\":"
       << r.tileClasses.equalColorsEqualInputs;
    os << ",\"eqColorsDiffInputs\":"
       << r.tileClasses.equalColorsDiffInputs;
    os << ",\"diffColorsDiffInputs\":"
       << r.tileClasses.diffColorsDiffInputs;
    os << ",\"diffColorsEqInputs\":"
       << r.tileClasses.diffColorsEqualInputs;
    os << ",\"fragmentsShaded\":" << r.fragmentsShaded;
    os << ",\"fragmentsMemoReused\":" << r.fragmentsMemoReused;
    os << ",\"signatureStallCycles\":" << r.signatureStallCycles;
    os << ",\"falsePositives\":" << r.reFalsePositives;
    writeRoundTripDouble(os << ",\"equalTilesConsecutivePct\":",
                         r.equalTilesConsecutivePct);
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
       << "," << r.frames << "," << r.geometryCycles << ","
       << r.rasterCycles << "," << r.totalCycles() << ",";
    writeRoundTripDouble(os, r.energy.gpu()) << ",";
    writeRoundTripDouble(os, r.energy.memory()) << ",";
    writeRoundTripDouble(os, r.energy.total()) << ","
       << r.traffic[TrafficClass::Geometry] << ","
       << r.traffic[TrafficClass::Primitives] << ","
       << r.traffic[TrafficClass::Texels] << ","
       << r.traffic[TrafficClass::Colors] << ","
       << r.traffic.totalReads() << "," << r.traffic.totalWrites()
       << "," << r.traffic.totalWritebacks() << ","
       << r.tilesTotal << ","
       << r.tilesRendered << "," << r.tilesSkippedByRe << ","
       << r.tileFlushesEliminated << ","
       << r.tileClasses.equalColorsEqualInputs << ","
       << r.tileClasses.equalColorsDiffInputs << ","
       << r.tileClasses.diffColorsDiffInputs << ","
       << r.tileClasses.diffColorsEqualInputs << ","
       << r.fragmentsShaded << "," << r.fragmentsMemoReused << ","
       << r.signatureStallCycles << "," << r.reFalsePositives << ",";
    writeRoundTripDouble(os, r.equalTilesConsecutivePct) << "\n";
}

} // namespace regpu
