"""Seeded end-to-end and per-layer benchmark of the regpu simulator.

    python3 perfbench/run.py --workload static2d|light3d|paper_sweep
                             [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the regpu_bench driver linked against the regpu
library one directory up) into .bench_build/ under the repository
root, runs one workload, checks its outputs and prints every metric
by name with its unit. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The last stdout line is
the result as one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "regpu"
DEFAULT_SEED = 1  # seed 7 is held out; see README.md
P_TAIL = 95
# Host times are reported at the host speed where regpu_bench's fixed
# gauge takes this long (about its time on an idle 4-core x86 host);
# see README.md, "Host noise".
GAUGE_REF_MS = 1.0
# |trace.unaccounted_pct| above this fails the run: the layer
# self-times no longer add up to the traced frame time.
CLOSURE_TOLERANCE_PCT = 2.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"regpu sources not found in {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "regpu_bench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode:
            fail("build failed: " + " ".join(cmd))


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """Untraced run -> end-to-end metrics. Host times are taken at gauge
    speed (stats.at_gauge_speed), then over the fastest half of each
    cell's repetitions (stats.fastest_half)."""
    frames = run_s = base_s = base_frags = setup_s = 0.0
    frame_ms = []
    for cell in raw["cells"]:
        scale = [GAUGE_REF_MS / g for g in cell["gauge_ms"]]
        runs = stats.at_gauge_speed(cell["run_s"], cell["gauge_ms"],
                                    GAUGE_REF_MS)
        for i in stats.fastest_half(runs):
            frames += len(cell["frame_ms"][i])
            run_s += runs[i]
            frame_ms += [ms * scale[i] for ms in cell["frame_ms"][i]]
            if cell["baseline"]:
                base_s += runs[i]
                base_frags += cell["fragments"]
        setup = stats.at_gauge_speed(cell["setup_s"], cell["gauge_ms"],
                                     GAUGE_REF_MS)
        setup_s += statistics.mean(setup[i] for i in stats.fastest_half(setup))
    sim = raw["sim"]
    return frame_ms, {
        "frames_per_s": frames / run_s,
        "frame_ms_p50": stats.percentile(frame_ms, 50),
        f"frame_ms_p{P_TAIL}": stats.percentile(frame_ms, P_TAIL),
        "setup_s": setup_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "host_ns_per_fragment": ratio(base_s * 1e9, base_frags),
        "sim_speedup_re": ratio(sim["base_cycles"], sim["re_cycles"]),
        "sim_energy_ratio_re":
            ratio(sim["re_energy_pj"], sim["base_energy_pj"]),
        "sim_dram_ratio_re": ratio(sim["re_dram_bytes"],
                                   sim["base_dram_bytes"]),
        "sim_tiles_skipped_pct":
            100.0 * ratio(sim["re_tiles_skipped"], sim["re_tiles_total"]),
    }


def per_layer(raw):
    """Traced run -> per-layer metrics. Per-frame times are per frame
    of the cells the layer runs in: re.* over RE frames, te.* over TE
    frames, memo.* over Memo frames, everything else over all frames
    (0 when the workload has no such cells)."""
    s = raw["sums"]
    frames = s["frames"]

    def ms(key, over="frames"):
        return ratio(s.get(key, 0.0), s.get(over, 0.0)) / 1e6

    untraced = s["direct_emit_ns"] + s["direct_render_ns"]
    return {
        "scene.emit_ms_per_frame": ms("emit_ns"),
        "gpu.geometry_ms_per_frame": ms("geometry_ns"),
        "gpu.primitives_per_frame": s["primitives"] / frames,
        "gpu.raster_ms_per_frame": ms("raster_ns"),
        "gpu.fragments_per_frame": s["fragments"] / frames,
        "gpu.raster_ns_per_fragment": ratio(s["raster_ns"], s["fragments"]),
        "pool.raster_wall_ms_per_frame": ms("raster_wall_ns"),
        "pool.merge_busy_frac":
            ratio(s["merge_busy_ns"], s["raster_wall_ns"]),
        "timing.mem_ms_per_frame": ms("mem_ns"),
        "timing.endframe_ms_per_frame": ms("endframe_ns"),
        "timing.texel_fetches_per_frame": s["texel_fetches"] / frames,
        "timing.texel_mru_rehit_frac":
            ratio(s["texel_mru_rehits"], s["texel_fetches"]),
        "timing.texcache_hit_rate":
            ratio(s["texcache_hits"], s["texcache_accesses"]),
        "timing.l2_hit_rate": ratio(s["l2_hits"], s["l2_accesses"]),
        "re.sig_ms_per_frame": ms("re_sig_ns", "re_frames"),
        "re.tiles_skipped_frac":
            ratio(s["re.tilesSkipped"], s["re.signatureCompares"]),
        "te.flush_ms_per_frame": ms("te_flush_ns", "te_frames"),
        "te.flushes_elided_frac":
            ratio(s["te.flushesEliminated"], s["te.signatureCompares"]),
        "memo.lut_ms_per_frame": ms("memo_lut_ns", "memo_frames"),
        "memo.hit_rate": ratio(s["memo.hits"], s["memo.lookups"]),
        "sim.account_ms_per_frame":
            (s["sim_run_ns"] - s["sim_emit_ns"] - s["direct_render_ns"])
            / frames / 1e6,
        "trace.overhead_pct": 100.0 * (s["frame_ns"] / untraced - 1.0),
        "trace.unaccounted_pct": 100.0 * s["unaccounted_ns"] / s["frame_ns"],
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    build()

    cmd = [str(BUILD / "regpu_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        fail(f"regpu_bench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    correct = raw["failed"] == 0
    if args.trace:
        values = per_layer(raw)
        closure = values["trace.unaccounted_pct"]
        if abs(closure) > CLOSURE_TOLERANCE_PCT:
            correct = False
            print(f"CLOSURE FAILED: layer self-times leave {closure:.2f}% "
                  f"of the traced frame time unaccounted "
                  f"(tolerance {CLOSURE_TOLERANCE_PCT}%)")
            print("CLOSURE FAILED (see stdout)", file=sys.stderr)
    else:
        frame_ms, values = end_to_end(raw)
        n = len(frame_ms)
        if not stats.percentile_supported(n, P_TAIL):
            correct = False
            print(f"CHECK FAILED: {n} frame samples leave fewer than "
                  f"{stats.MIN_TAIL_SAMPLES} beyond p{P_TAIL}")
        fp = raw["sim"]["false_positives"]
        gauges = [g for cell in raw["cells"] for g in cell["gauge_ms"]]
        print(f"host gauge: median {statistics.median(gauges):.3f} ms, "
              f"host times reported at {GAUGE_REF_MS} ms")
        print(f"frame samples: {n} (p{P_TAIL} has "
              f"{stats.samples_beyond(n, P_TAIL)} beyond it)")
        print(f"sim_false_positive_tiles = {fp:.0f} count")
        print(f"failed_frac = {ratio(raw['failed'], raw['attempted']):.4f} "
              f"({raw['failed']} of {raw['attempted']} cells)")
        if fp:
            correct = False

    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
