/**
 * @file
 * Domain example 3: redundancy inspector. Renders any suite workload
 * under RE and prints an ASCII heat map of the tile grid per frame:
 * '.' = skipped (redundant inputs), '#' = rendered, 'o' = rendered but
 * colors were equal anyway (RE false negative - TE's extra headroom).
 *
 * Usage: redundancy_inspector [alias] [frames]
 * (frames >= 1; a malformed count is fatal, as in suite_cli)
 */

#include <cstdio>
#include <string>

#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace regpu;

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    std::string alias = argc > 1 ? argv[1] : "ctr";
    const u64 frames = argc > 2 ? parseCountArg("frames", argv[2]) : 6;
    if (frames == 0)
        fatal("frames must be >= 1");

    GpuConfig config;
    config.scaleResolution(400, 256); // 25x16 tile grid fits a terminal
    config.technique = Technique::RenderingElimination;

    auto scene = makeBenchmark(alias, config);
    SimOptions opts;
    opts.frames = frames;
    Simulator sim(*scene, config, opts);

    std::printf("redundancy_inspector: workload '%s', %ux%u tiles\n",
                alias.c_str(), config.tilesX(), config.tilesY());
    std::printf("legend: '.' skipped | '#' rendered (changed) | "
                "'o' rendered but same colors (false negative)\n");

    for (u64 f = 0; f < frames; f++) {
        FrameResult r = sim.stepFrame(f);
        u32 skipped = 0, falseNeg = 0;
        std::printf("\nframe %llu:\n",
                    static_cast<unsigned long long>(f));
        for (u32 ty = 0; ty < config.tilesY(); ty++) {
            std::printf("  ");
            for (u32 tx = 0; tx < config.tilesX(); tx++) {
                const TileOutcome &t =
                    r.tiles[ty * config.tilesX() + tx];
                char glyph;
                if (!t.rendered) {
                    glyph = '.';
                    skipped++;
                } else if (t.equalColors && f >= 2) {
                    glyph = 'o';
                    falseNeg++;
                } else {
                    glyph = '#';
                }
                std::putchar(glyph);
            }
            std::putchar('\n');
        }
        std::printf("  skipped %u / %u, false negatives %u\n", skipped,
                    config.numTiles(), falseNeg);
    }
    return 0;
}
