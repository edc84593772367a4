#include "obs/run_artifacts.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace regpu
{

namespace
{

std::ofstream
openArtifact(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("obs: cannot open artifact file for writing: ", path);
    return out;
}

} // namespace

RunObsWriter::RunObsWriter(const std::string &dir, const std::string &tag,
                           const GpuConfig &config)
    : dir_(dir), tag_(tag), tilesX_(config.tilesX()),
      tilesY_(config.tilesY())
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("obs: cannot create artifact directory ", dir_, ": ",
              ec.message());

    const std::string base = dir_ + "/" + tag_;
    framesJsonl = openArtifact(base + ".frames.jsonl");
    heatRe = openArtifact(base + ".heat.re.csv");
    heatTe = openArtifact(base + ".heat.te.csv");
    heatDram = openArtifact(base + ".heat.dram.csv");
    for (std::ofstream *os : {&heatRe, &heatTe, &heatDram})
        *os << "frame,tileX,tileY,value\n";

    const std::size_t n = config.numTiles();
    for (std::vector<u64> *v :
         {&curRe, &curTe, &curDram, &totRe, &totTe, &totDram})
        v->assign(n, 0);
}

RunObsWriter::~RunObsWriter()
{
    finish();
}

void
RunObsWriter::beginFrame(u64 frame)
{
    (void)frame;
    std::fill(curRe.begin(), curRe.end(), 0);
    std::fill(curTe.begin(), curTe.end(), 0);
    std::fill(curDram.begin(), curDram.end(), 0);
}

void
RunObsWriter::tileOutcome(TileId tile, bool rendered, bool flushed,
                          u64 dramBytes)
{
    if (tile >= curRe.size())
        return;
    curRe[tile] = rendered ? 0 : 1;
    curTe[tile] = (rendered && !flushed) ? 1 : 0;
    curDram[tile] = dramBytes;
    totRe[tile] += curRe[tile];
    totTe[tile] += curTe[tile];
    totDram[tile] += dramBytes;
}

void
RunObsWriter::writeHeatRows(std::ofstream &os, u64 frame,
                            const std::vector<u64> &vals)
{
    for (std::size_t t = 0; t < vals.size(); t++) {
        os << frame << "," << (t % tilesX_) << "," << (t / tilesX_)
           << "," << vals[t] << "\n";
    }
}

std::string
RunObsWriter::ppmPath(const char *metric, u64 frame) const
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".f%04llu.ppm",
                  static_cast<unsigned long long>(frame));
    return dir_ + "/" + tag_ + "." + metric + suffix;
}

void
RunObsWriter::writePpm(const std::string &path,
                       const std::vector<u64> &vals) const
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        fatal("obs: cannot open artifact file for writing: ", path);
    out << "P6\n" << tilesX_ << " " << tilesY_ << "\n255\n";
    const u64 maxVal = vals.empty()
        ? 0 : *std::max_element(vals.begin(), vals.end());
    for (u64 v : vals) {
        const u8 g = maxVal
            ? static_cast<u8>((v * 255) / maxVal) : 0;
        const char px[3] = {static_cast<char>(g), static_cast<char>(g),
                            static_cast<char>(g)};
        out.write(px, 3);
    }
}

void
RunObsWriter::endFrame(u64 frame, const StatRegistry &stats,
                       Cycles geometryCycles, Cycles rasterCycles,
                       u64 dramBytes)
{
    writeHeatRows(heatRe, frame, curRe);
    writeHeatRows(heatTe, frame, curTe);
    writeHeatRows(heatDram, frame, curDram);
    writePpm(ppmPath("re", frame), curRe);
    writePpm(ppmPath("te", frame), curTe);
    writePpm(ppmPath("dram", frame), curDram);

    std::ostream &os = framesJsonl;
    os << "{\"frame\":" << frame << ",\"tag\":";
    obs_detail::writeJsonString(os, tag_);
    os << ",\"geometryCycles\":" << geometryCycles
       << ",\"rasterCycles\":" << rasterCycles
       << ",\"dramBytes\":" << dramBytes << ",\"counters\":{";
    bool first = true;
    stats.forEachCounter([&](std::string_view name, u64 val) {
        auto it = prevCounters.find(std::string(name));
        const u64 prev = it == prevCounters.end() ? 0 : it->second;
        if (!first)
            os << ",";
        first = false;
        obs_detail::writeJsonString(os, name);
        os << ":" << (val >= prev ? val - prev : 0);
    });
    os << "}}\n";

    prevCounters.clear();
    stats.forEachCounter([&](std::string_view name, u64 val) {
        prevCounters.emplace(std::string(name), val);
    });
}

void
RunObsWriter::finish()
{
    if (finished)
        return;
    finished = true;
    writePpm(dir_ + "/" + tag_ + ".re.total.ppm", totRe);
    writePpm(dir_ + "/" + tag_ + ".te.total.ppm", totTe);
    writePpm(dir_ + "/" + tag_ + ".dram.total.ppm", totDram);
    framesJsonl.close();
    heatRe.close();
    heatTe.close();
    heatDram.close();
}

} // namespace regpu
