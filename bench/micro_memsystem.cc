/**
 * @file
 * micro_memsystem: accesses/sec of the level-linked memory hierarchy.
 *
 * Drives the MemSystem's MemTraceSink entry points directly with
 * synthetic streams - a sequential vertex stream, a tiled texel
 * random walk, the rasterizer's bilinear texel stream, Parameter
 * Buffer write/read phases and Color Buffer flush/read-back
 * traffic - and reports the hierarchy-walk cost per access for each
 * stream plus a mixed workload. Changes to src/timing/ can eyeball
 * whether they made the walk slower.
 *
 * Usage: micro_memsystem [--accesses N] [--mix-frames N]
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/texture.hh"
#include "sim/parallel_runner.hh"
#include "timing/memsystem.hh"

using namespace regpu;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct BenchResult
{
    double seconds = 0;
    u64 accesses = 0;
    u64 dramBytes = 0;
};

void
report(const char *name, const BenchResult &r)
{
    std::printf("%-18s %10.1f Maccesses/s  (%9llu accesses, "
                "%8.2f MB DRAM, %.3f s)\n",
                name, r.accesses / r.seconds / 1e6,
                static_cast<unsigned long long>(r.accesses),
                r.dramBytes / (1024.0 * 1024.0), r.seconds);
}

template <typename Fn>
BenchResult
run(u64 accesses, Fn &&body)
{
    GpuConfig config;
    config.validate();
    MemSystem mem(config);
    auto t0 = std::chrono::steady_clock::now();
    body(mem, accesses);
    BenchResult r;
    r.seconds = secondsSince(t0);
    r.accesses = accesses;
    r.dramBytes = mem.dram().traffic().total();
    ConservationReport cons = mem.checkConservation();
    if (!cons.ok())
        fatal("conservation violated in bench:\n", cons.detail);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 accesses = 2'000'000;
    u64 mixFrames = 8;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--accesses") && i + 1 < argc)
            accesses = parseCountArg("--accesses", argv[++i]);
        else if (!std::strcmp(argv[i], "--mix-frames") && i + 1 < argc)
            mixFrames = parseCountArg("--mix-frames", argv[++i]);
        else
            fatal("usage: micro_memsystem [--accesses N] "
                  "[--mix-frames N]");
    }
    if (mixFrames == 0)
        fatal("--mix-frames must be >= 1 (got 0)");

    std::printf("== micro_memsystem: hierarchy-walk cost ==\n");

    report("vertex stream", run(accesses, [](MemSystem &m, u64 n) {
        for (u64 i = 0; i < n; i++)
            m.vertexFetch(0x1'0000'0000ull + (i % (1 << 22)) * 28, 28);
    }));

    report("texel tiled", run(accesses, [](MemSystem &m, u64 n) {
        Rng rng(7);
        for (u64 i = 0; i < n; i++) {
            // 2D locality: a random walk within a 256x256 texel tile.
            const Addr base = 0x3'0000'0000ull
                + (i / 4096) * 256 * 256 * 4;
            const Addr off = rng.nextBounded(256 * 256) * 4;
            m.texelFetch(static_cast<u32>(i & 3), base + off);
        }
    }));

    report("texel bilinear", run(accesses, [](MemSystem &m, u64 n) {
        // TileRenderer's stream: scanlines of a 512x512 screen
        // sampling a 256x256 texture at 2x magnification, one 2x2
        // footprint per pixel in one texelFetches call, on the
        // texture cache of the pixel's quad. About half the fetches
        // repeat the line just fetched from that cache.
        const Texture tex(0, 256, 256, TexturePattern::Solid, 1);
        u64 issued = 0;
        for (u32 y = 0; issued < n; y = (y + 1) & 511) {
            for (u32 x = 0; x < 512 && issued < n; x++, issued += 4) {
                const i32 u = static_cast<i32>(x >> 1);
                const i32 v = static_cast<i32>(y >> 1);
                const Addr quad[4] = {
                    tex.texelAddr(u, v), tex.texelAddr(u + 1, v),
                    tex.texelAddr(u, v + 1), tex.texelAddr(u + 1, v + 1)};
                m.texelFetches(((x >> 1) + (y >> 1)) & 3, quad);
            }
        }
    }));

    report("pb write+read", run(accesses, [](MemSystem &m, u64 n) {
        for (u64 i = 0; i < n / 2; i++)
            m.parameterWrite(0x2'0000'0000ull + (i % (1 << 16)) * 176,
                             176);
        for (u64 i = 0; i < n / 2; i++)
            m.parameterRead(0x2'0000'0000ull + (i % (1 << 16)) * 176,
                            176);
    }));

    report("color flush+read", run(accesses, [](MemSystem &m, u64 n) {
        for (u64 i = 0; i < n / 2; i++)
            m.colorFlush(0x4'0000'0000ull + (i % 3600) * 1024, 1024);
        for (u64 i = 0; i < n / 2; i++)
            m.colorRead(0x4'0000'0000ull + (i % 3600) * 1024, 1024);
    }));

    // Mixed per-frame workload shaped like a real run: PB writes,
    // then per-tile PB reads + texels + flushes, with frame ends.
    report("mixed frames", run(accesses, [&](MemSystem &m, u64 n) {
        Rng rng(11);
        const u64 perFrame = n / mixFrames;
        for (u64 f = 0; f < mixFrames; f++) {
            for (u64 i = 0; i < perFrame; i++) {
                switch (i % 8) {
                  case 0:
                    m.parameterWrite(0x2'0000'0000ull
                                         + rng.nextBounded(1 << 24),
                                     176);
                    break;
                  case 1:
                    m.parameterRead(0x2'0000'0000ull
                                        + rng.nextBounded(1 << 24),
                                    176);
                    break;
                  case 7:
                    m.colorFlush(0x4'0000'0000ull
                                     + rng.nextBounded(3600) * 1024,
                                 1024);
                    break;
                  default:
                    m.texelFetch(static_cast<u32>(i & 3),
                                 0x3'0000'0000ull
                                     + rng.nextBounded(1 << 22));
                    break;
                }
            }
            m.endFrame();
        }
    }));

    return 0;
}
