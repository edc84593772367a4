#include "sim/experiment.hh"

#include <cstring>

#include "common/logging.hh"
#include "sim/parallel_runner.hh"
#include "workloads/workloads.hh"

namespace regpu
{

namespace
{

constexpr const char *scaleUsage =
    R"(valid flags: --fast | --full | --frames N | --jobs N)"
    R"( | --tile-jobs N | --record-dir DIR | --replay-dir DIR)";

} // namespace

ExperimentScale
ExperimentScale::fromArgs(int argc, char **argv)
{
    ExperimentScale s;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal(argv[i], " expects a value; ", scaleUsage);
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--fast") == 0) {
            s.screenWidth = 400;
            s.screenHeight = 256;
            s.frames = 12;
        } else if (std::strcmp(argv[i], "--full") == 0) {
            s.screenWidth = 1196;
            s.screenHeight = 768;
            s.frames = 50;
        } else if (std::strcmp(argv[i], "--frames") == 0) {
            s.frames = parseFramesArg(value(i));
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            s.jobs = parseJobsArg(value(i));
        } else if (std::strcmp(argv[i], "--tile-jobs") == 0) {
            s.tileJobs = parseTileJobsArg(value(i));
        } else if (std::strcmp(argv[i], "--record-dir") == 0) {
            s.recordDir = value(i);
        } else if (std::strcmp(argv[i], "--replay-dir") == 0) {
            s.replayDir = value(i);
        } else {
            fatal("unknown flag: ", argv[i], "; ", scaleUsage);
        }
    }
    return s;
}

std::vector<std::string>
allAliases()
{
    std::vector<std::string> v;
    for (const auto &b : benchmarkSuite())
        v.push_back(b.alias);
    return v;
}

} // namespace regpu
