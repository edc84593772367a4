/**
 * @file
 * Result reporting: detailed per-run summaries, cross-technique
 * comparison tables, and CSV export for downstream plotting.
 */

#ifndef REGPU_SIM_REPORT_HH
#define REGPU_SIM_REPORT_HH

#include <ios>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace regpu
{

/**
 * RAII guard restoring a stream's formatting state (flags, precision,
 * fill) on scope exit, so printers can set std::fixed /
 * std::setprecision freely without leaking that state into the
 * caller's later writes (the PR 6 bug class: a leaked
 * std::setprecision(1) truncated every CSV energy column).
 * scripts/lint.py enforces that every std::fixed/std::setprecision
 * user pairs with one of these.
 */
class StreamFormatGuard
{
  public:
    explicit StreamFormatGuard(std::ostream &_os)
        : os(_os), flags(_os.flags()), precision(_os.precision()),
          fill(_os.fill())
    {}
    ~StreamFormatGuard()
    {
        os.flags(flags);
        os.precision(precision);
        os.fill(fill);
    }
    StreamFormatGuard(const StreamFormatGuard &) = delete;
    StreamFormatGuard &operator=(const StreamFormatGuard &) = delete;

  private:
    std::ostream &os;
    std::ios_base::fmtflags flags;
    std::streamsize precision;
    char fill;
};

/**
 * Print a human-readable summary of one run: cycles (split), energy
 * (split), DRAM traffic (per class), tile and fragment accounting,
 * overheads.
 */
void printRunSummary(std::ostream &os, const SimResult &result,
                     const GpuConfig &config);

/**
 * Print a side-by-side comparison of several runs of the *same*
 * workload under different techniques, normalized to the first run.
 */
void printComparison(std::ostream &os,
                     const std::vector<SimResult> &results);

/**
 * Append one run as a CSV row.
 * @param header when true, writes the column-name row first
 */
void writeCsvRow(std::ostream &os, const SimResult &result,
                 bool header = false);

/** Machine-readable column names of the CSV schema (stable order). */
const std::vector<std::string> &csvColumns();

/**
 * Append one run as a self-describing JSON object on a single line
 * (JSON-Lines: one object per run, no enclosing array). Carries the
 * run's identity (workload, technique, seed, frames, resolution) next
 * to every metric of the CSV schema, so downstream plotting keys on
 * names instead of parsing CSV headers.
 */
void writeJsonRun(std::ostream &os, const SimResult &result,
                  const GpuConfig &config, u64 sceneSeed);

} // namespace regpu

#endif // REGPU_SIM_REPORT_HH
