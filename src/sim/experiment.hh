/**
 * @file
 * The experiment scale that paper_figures, ablation_hash_quality and
 * micro_trace parse from one flag set (screen, frame count, workers,
 * trace capture/replay), and the suite's alias list.
 */

#ifndef REGPU_SIM_EXPERIMENT_HH
#define REGPU_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace regpu
{

/** Scale factors for quick vs paper-fidelity runs. */
struct ExperimentScale
{
    u32 screenWidth = 1196;
    u32 screenHeight = 768;
    u64 frames = 30;
    unsigned jobs = 1;  //!< worker threads for the sweep (0 = all cores)
    unsigned tileJobs = 1;  //!< intra-frame tile workers per run
                            //!< (results identical for any value)

    /** When set, the sweep records one trace per workload here
     *  before simulating (file name `<alias>.rgputrace`). */
    std::string recordDir;
    /** When set, the sweep replays `<alias>.rgputrace` from here
     *  instead of generating scenes. */
    std::string replayDir;

    /**
     * Parse from argv: "--fast" shrinks, "--full" uses Table I with
     * 50 frames (Fig. 2 setting), "--frames N", "--jobs N" (results
     * are identical for any N), "--tile-jobs N" (intra-frame tile
     * workers, results identical for any N), "--record-dir D" /
     * "--replay-dir D" capture or replay frame traces. Default is
     * Table I resolution with a 30-frame single-threaded run.
     *
     * Parsing is strict: an unknown flag, a flag missing its value,
     * a malformed number or "--frames 0" fatal()s with a usage
     * message — a typo like "--frmes 50" must not silently run the
     * defaults.
     */
    static ExperimentScale fromArgs(int argc, char **argv);
};

/** All ten paper aliases in presentation order. */
std::vector<std::string> allAliases();

} // namespace regpu

#endif // REGPU_SIM_EXPERIMENT_HH
