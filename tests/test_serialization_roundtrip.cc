/**
 * @file
 * The persisted-artifact serialization contract:
 *
 *  - every double in a CSV row / JSON run round-trips exactly
 *    (shortest-form std::to_chars), independent of whatever
 *    std::fixed / precision state the caller's stream carries;
 *  - the human-readable printers restore the stream state they
 *    change;
 *  - hostile workload names are RFC-4180-quoted in CSV and escaped
 *    in JSON;
 *  - writeJsonRun output for all ten suite workloads parses under a
 *    strict JSON grammar (no trailing commas, no NaN/Infinity, no
 *    unescaped control characters).
 *
 * The strict parser itself lives in tests/strict_json.hh (shared with
 * the observability artifact tests).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

#include "strict_json.hh"

using namespace regpu;
using regpu::testutil::StrictJsonParser;

namespace
{

/** Split one CSV line into fields under RFC 4180 quoting rules. */
std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); i++) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    i++;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

SimResult
smallRun(Technique tech, const std::string &alias = "ccs")
{
    GpuConfig config;
    config.scaleResolution(128, 80);
    config.technique = tech;
    auto scene = makeBenchmark(alias, config);
    SimOptions opts;
    opts.frames = 2;
    Simulator sim(*scene, config, opts);
    return sim.run();
}

std::size_t
columnIndex(const std::string &name)
{
    const auto &cols = csvColumns();
    for (std::size_t i = 0; i < cols.size(); i++)
        if (cols[i] == name)
            return i;
    ADD_FAILURE() << "no such column: " << name;
    return 0;
}

double
parseExactDouble(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size())
        << "not a full double: '" << text << "'";
    return v;
}

} // namespace

TEST(SerializationRoundTrip, DoublesSurviveHostileStreamState)
{
    GpuConfig config;
    config.scaleResolution(128, 80);
    SimResult r = smallRun(Technique::RenderingElimination);
    // Values that need full round-trip precision: a 6-significant-
    // digit default print would destroy all of them.
    r.energy.gpuDynamic = 123456789.0 + 1.0 / 3.0;
    r.energy.gpuStatic = 0.1;
    r.energy.memDynamic = 3.141592653589793e7;
    r.energy.memStatic = 2.5e-3;
    r.equalTilesConsecutivePct = 100.0 / 3.0;

    // One stream for everything: the summary printer used to leave
    // std::fixed/setprecision(1) behind, which then truncated every
    // double the CSV/JSON writers emitted.
    std::ostringstream os;
    printRunSummary(os, r, config);
    os.str("");
    writeCsvRow(os, r, false);
    const std::string csvRow =
        os.str().substr(0, os.str().find('\n'));
    os.str("");
    writeJsonRun(os, r, config, 1);
    const std::string jsonLine = os.str();

    const std::vector<std::string> fields = parseCsvLine(csvRow);
    ASSERT_EQ(fields.size(), csvColumns().size());
    EXPECT_EQ(parseExactDouble(fields[columnIndex("energyGpuPj")]),
              r.energy.gpu());
    EXPECT_EQ(parseExactDouble(fields[columnIndex("energyMemPj")]),
              r.energy.memory());
    EXPECT_EQ(parseExactDouble(fields[columnIndex("energyTotalPj")]),
              r.energy.total());
    EXPECT_EQ(parseExactDouble(
                  fields[columnIndex("equalTilesConsecutivePct")]),
              r.equalTilesConsecutivePct);

    StrictJsonParser parser(jsonLine);
    std::string error;
    ASSERT_TRUE(parser.parse(error)) << error;
    EXPECT_EQ(parseExactDouble(
                  parser.topLevelValueText("energyGpuPj")),
              r.energy.gpu());
    EXPECT_EQ(parseExactDouble(
                  parser.topLevelValueText("energyMemPj")),
              r.energy.memory());
    EXPECT_EQ(parseExactDouble(
                  parser.topLevelValueText("energyTotalPj")),
              r.energy.total());
    EXPECT_EQ(parseExactDouble(parser.topLevelValueText(
                  "equalTilesConsecutivePct")),
              r.equalTilesConsecutivePct);
}

TEST(SerializationRoundTrip, PrintersRestoreStreamState)
{
    GpuConfig config;
    config.scaleResolution(128, 80);
    SimResult r = smallRun(Technique::Baseline);

    std::ostringstream os;
    // lint:allow(stream-guard): deliberately hostile pre-set state —
    // the test proves the printers survive it without a guard here
    os << std::scientific;
    os.precision(11);
    const auto flagsBefore = os.flags();

    printRunSummary(os, r, config);
    EXPECT_EQ(os.flags(), flagsBefore);
    EXPECT_EQ(os.precision(), 11);

    printComparison(os, {r, r});
    EXPECT_EQ(os.flags(), flagsBefore);
    EXPECT_EQ(os.precision(), 11);
}

TEST(SerializationRoundTrip, NonFiniteDoublesSerializeAsZero)
{
    GpuConfig config;
    config.scaleResolution(128, 80);
    SimResult r = smallRun(Technique::Baseline);
    r.equalTilesConsecutivePct =
        std::numeric_limits<double>::quiet_NaN();

    std::ostringstream os;
    writeJsonRun(os, r, config, 1);
    StrictJsonParser parser(os.str());
    std::string error;
    ASSERT_TRUE(parser.parse(error)) << error; // "nan" would not parse
    EXPECT_EQ(parser.topLevelValueText("equalTilesConsecutivePct"),
              "0");
}

TEST(SerializationRoundTrip, HostileWorkloadNameIsCsvQuoted)
{
    SimResult r = smallRun(Technique::Baseline);
    r.workload = "evil,\"alias\"\nsecond line";

    std::ostringstream os;
    writeCsvRow(os, r, true);
    const std::string text = os.str();
    const std::string header = text.substr(0, text.find('\n'));
    const std::string row = text.substr(text.find('\n') + 1,
                                        text.rfind('\n')
                                            - text.find('\n') - 1);

    const std::vector<std::string> fields = parseCsvLine(row);
    ASSERT_EQ(fields.size(), csvColumns().size())
        << "hostile name split the row";
    EXPECT_EQ(fields[0], r.workload);
    EXPECT_EQ(fields[1], "Baseline");

    // The quoted field must not add top-level commas: the unquoted
    // comma count of the row equals the header's.
    std::size_t topLevelCommas = 0;
    bool quoted = false;
    for (char c : row) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            topLevelCommas++;
    }
    std::size_t headerCommas = 0;
    for (char c : header)
        headerCommas += c == ',';
    EXPECT_EQ(topLevelCommas, headerCommas);
}

TEST(SerializationRoundTrip, HostileWorkloadNameSurvivesJson)
{
    GpuConfig config;
    config.scaleResolution(128, 80);
    SimResult r = smallRun(Technique::Baseline);
    r.workload = "evil,\"alias\"\nsecond\tline\x01";

    std::ostringstream os;
    writeJsonRun(os, r, config, 1);
    StrictJsonParser parser(os.str());
    std::string error;
    ASSERT_TRUE(parser.parse(error)) << error;
    EXPECT_EQ(parser.topLevelValueText("workload"),
              "\"evil,\\\"alias\\\"\\nsecond\\tline\\u0001\"");
}

TEST(SerializationRoundTrip, AllWorkloadsEmitStrictJson)
{
    for (const auto &info : benchmarkSuite()) {
        GpuConfig config;
        config.scaleResolution(128, 80);
        config.technique = Technique::RenderingElimination;
        SimResult r =
            smallRun(Technique::RenderingElimination, info.alias);

        std::ostringstream os;
        // Poison the stream the way a preceding summary print would.
        printRunSummary(os, r, config);
        os.str("");
        writeJsonRun(os, r, config, 7);

        StrictJsonParser parser(os.str());
        std::string error;
        ASSERT_TRUE(parser.parse(error))
            << info.alias << ": " << error;
        // Key set matches the documented schema: identity + every
        // CSV metric that is not CSV-positional.
        const auto &keys = parser.topLevelKeys();
        EXPECT_EQ(keys.front(), "workload") << info.alias;
        for (const char *key :
             {"technique", "seed", "frames", "totalCycles",
              "energyTotalPj", "dramReadB", "dramWritebackB",
              "tilesSkipped", "fragmentsShaded",
              "equalTilesConsecutivePct"})
            EXPECT_NE(std::find(keys.begin(), keys.end(), key),
                      keys.end())
                << info.alias << " missing " << key;
    }
}
