#!/usr/bin/env bash
#
# Tier-1 verification — the CI entry point.
#
# Configures, builds (-Wall -Wextra -Wshadow -Wnon-virtual-dtor,
# warnings are the build's problem to stay clean of), runs every
# registered ctest suite, and finishes with three smokes: a suite_cli
# determinism pass (a parallel sweep must emit stdout and a CSV
# bit-identical to the sequential one), a tile worker pool
# determinism pass (the same sweep must be bit-identical across
# --tile-jobs 1/4/8, with the observability sink off and on, and so
# must every obs artifact but the timeline) and a
# trace record->verify->replay pass (replaying a recorded trace must
# emit a CSV bit-identical to the live run, and trace_cli verify must
# hold).
#
# Static & concurrency analysis gates:
#  - scripts/lint.py (repo-invariant linter) and scripts/analyze.py
#    (whole-repo architecture analyzer: layering DAG, header hygiene,
#    stat-name and CSV/JSON schema cross-checks) are stdlib-only and
#    run UNCONDITIONALLY in every pass, --self-tests first — they
#    need no toolchain and catch the PR 2/4/6 bug classes plus
#    cross-file drift (phantom stats, schema/README divergence,
#    forbidden layer edges) mechanically.
#  - perfbench/test_stats.py (the bench gate) self-tests the
#    benchmark's statistics rules (percentiles, spread, the paired
#    gain rule, regression bounds); stdlib-only, it runs wherever
#    lint and analyze do.
#  - clang-tidy (--tidy) is a ZERO-warning gate over src/, bench/,
#    examples/ and tests/ using the committed .clang-tidy (plus the
#    narrowing-conversion overlays on the serialization paths). When
#    clang-tidy is not installed it SKIPS with a loud warning instead
#    of failing, so bare containers still get the rest of tier-1.
#  - clang -Werror=thread-safety (--tsa) compiles the annotated tree
#    (common/thread_annotations.hh capability annotations on every
#    mutex-guarded structure) with -DREGPU_THREAD_SAFETY=ON, proving
#    the lock discipline at compile time. Same loud-skip policy when
#    clang++ is absent.
#  - ASan+UBSan (-DREGPU_SANITIZE=address, which adds
#    float-cast-overflow to gcc's UBSan set) re-runs the unit suites,
#    the two results-ledger tests (real scenes through suite_cli),
#    test_trace (hostile, CRC-valid payloads through the trace parser)
#    and test_pipeline_integration (tiles served from their records,
#    whose texel captures the merge sends by indexing textures with
#    captured texel indices);
#    TSan (-DREGPU_SANITIZE=thread) runs the ParallelRunner
#    determinism + contention-stress suites plus the observability
#    suite (per-thread ring attach/park under an 8-worker pool).
#    test_parallel_stress includes the TilePoolStress suites, so the
#    intra-frame tile worker pool — including outer sweep workers
#    crossed with inner tile workers — is TSan-checked automatically.
#    test_memo (per-thread memo LUTs on the pool) and
#    test_pipeline_integration (the tile loop's hook calls) run there
#    too.
#  - fma (--fma) builds suite_cli, paper_figures and the raster,
#    texture, color and cache suites with -mfma and re-runs both
#    results-ledger tests, paper_figures_golden and those suites: the
#    pinned -ffp-contract=off must keep every simulated number
#    independent of -march, and the lane kernel's products and sums
#    bit-identical to the scalar reference. Same loud-skip policy when
#    the CPU has no FMA (no "fma" flag in /proc/cpuinfo).
#
# Every run ends with a gate summary table: per gate, whether it ran,
# was skipped (and why), failed, or was not part of the invoked flow.
#
# Usage:
#   scripts/check.sh             # full tier-1 (lint, analyze, bench,
#                                # build, ctest, smokes, tidy, tsa,
#                                # sanitize + tsan + fma passes)
#   scripts/check.sh --unit      # lint, analyze, bench, then
#                                # configure + build + unit tests only
#   scripts/check.sh --lint      # repo-invariant linter only
#   scripts/check.sh --analyze   # architecture analyzer only
#   scripts/check.sh --tidy      # clang-tidy zero-warning gate only
#   scripts/check.sh --tsa       # clang thread-safety analysis only
#   scripts/check.sh --tsan      # TSan build + parallel suites only
#   scripts/check.sh --sanitize  # ASan+UBSan build + unit,
#                                # results-ledger, trace and pipeline
#                                # integration tests only
#   scripts/check.sh --fma       # -mfma build + results-ledger,
#                                # paper-figures golden and raster,
#                                # texture, color, cache tests only
#   scripts/check.sh --obs       # observability smoke: sweep with
#                                # --obs-dir, validate the timeline
#                                # JSON / per-frame JSONL / heatmap
#                                # artifacts, and prove stdout+CSV are
#                                # byte-identical with obs on/off for
#                                # --jobs 1 and 8
#
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
SANITIZE_DIR=build-sanitize
TSAN_DIR=build-tsan
TSA_DIR=build-tsa
FMA_DIR=build-fma

# --- gate summary -----------------------------------------------------------
#
# Every pass function marks its gate: FAILED on entry, ran on clean
# completion, skipped(reason) when a tool is absent. Because set -e
# aborts the script inside a failing pass, whatever gate is still
# marked FAILED at EXIT is the one that sank the run. The table prints
# from the EXIT trap, after tmpfile cleanup, success or not.
GATE_ORDER=(lint analyze bench build ctest smokes obs tidy tsa asan tsan
            fma)
declare -A GATE_STATUS
for g in "${GATE_ORDER[@]}"; do GATE_STATUS[$g]="not run"; done

gate_begin() { GATE_STATUS[$1]="FAILED"; }
gate_end()   { GATE_STATUS[$1]="ran"; }
gate_skip()  { GATE_STATUS[$1]="skipped ($2)"; }

CLEANUP_PATHS=()

print_gate_summary() {
    local g touched=0
    for g in "${GATE_ORDER[@]}"; do
        [[ "${GATE_STATUS[$g]}" != "not run" ]] && touched=1
    done
    # Nothing started (e.g. usage error): no table.
    [[ $touched -eq 1 ]] || return 0
    echo
    echo "== gate summary =="
    printf '  %-9s %s\n' "gate" "status"
    printf '  %-9s %s\n' "----" "------"
    for g in "${GATE_ORDER[@]}"; do
        printf '  %-9s %s\n' "$g" "${GATE_STATUS[$g]}"
    done
}

on_exit() {
    rm -rf ${CLEANUP_PATHS[@]+"${CLEANUP_PATHS[@]}"}
    print_gate_summary
}
trap on_exit EXIT

run_lint_pass() {
    gate_begin lint
    echo "== lint.py self-test + repo-invariant lint =="
    python3 scripts/lint.py --self-test
    python3 scripts/lint.py
    gate_end lint
}

run_analyze_pass() {
    gate_begin analyze
    echo "== analyze.py self-test + whole-repo architecture analysis =="
    python3 scripts/analyze.py --self-test
    python3 scripts/analyze.py
    gate_end analyze
}

run_tidy_pass() {
    gate_begin tidy
    echo "== clang-tidy zero-warning gate =="
    local tidy=""
    for cand in clang-tidy clang-tidy-21 clang-tidy-20 clang-tidy-19 \
                clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                clang-tidy-15; do
        if command -v "$cand" > /dev/null 2>&1; then
            tidy=$cand
            break
        fi
    done
    if [[ -z "$tidy" ]]; then
        echo "#########################################################" >&2
        echo "## WARNING: clang-tidy is NOT installed — SKIPPING the ##" >&2
        echo "## zero-warning tidy gate. Install clang-tidy to run   ##" >&2
        echo "## the full static-analysis tier.                      ##" >&2
        echo "#########################################################" >&2
        gate_skip tidy "clang-tidy not installed"
        return 0
    fi

    # The gate runs over every TU the build actually compiles (the
    # compilation database is exported unconditionally), filtered to
    # repo sources so fetched third-party TUs are never linted.
    cmake -B "$BUILD_DIR" -S . > /dev/null
    local tu_list
    tu_list=$(python3 - "$PWD" "$BUILD_DIR/compile_commands.json" <<'EOF'
import json, os, sys
root, db = sys.argv[1], sys.argv[2]
dirs = tuple(os.path.join(root, d) + os.sep
             for d in ("src", "bench", "examples", "tests"))
files = sorted({e["file"] for e in json.load(open(db))})
print("\n".join(f for f in files if f.startswith(dirs)))
EOF
)
    if [[ -z "$tu_list" ]]; then
        echo "ERROR: no repo TUs found in compile_commands.json" >&2
        exit 1
    fi
    # .clang-tidy sets WarningsAsErrors: '*', so any diagnostic makes
    # clang-tidy (and thus xargs) exit non-zero.
    echo "$tu_list" | xargs -P "$(nproc)" -n 4 \
        "$tidy" -p "$BUILD_DIR" --quiet
    echo "clang-tidy: zero warnings over $(echo "$tu_list" | wc -l) TUs"
    gate_end tidy
}

run_tsa_pass() {
    gate_begin tsa
    echo "== clang -Werror=thread-safety lock-discipline gate =="
    local clangxx=""
    for cand in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                clang++-17 clang++-16 clang++-15; do
        if command -v "$cand" > /dev/null 2>&1; then
            clangxx=$cand
            break
        fi
    done
    if [[ -z "$clangxx" ]]; then
        echo "#########################################################" >&2
        echo "## WARNING: clang++ is NOT installed — SKIPPING the    ##" >&2
        echo "## -Werror=thread-safety gate. The REGPU_GUARDED_BY /  ##" >&2
        echo "## REGPU_EXCLUDES annotations compile as no-ops under  ##" >&2
        echo "## gcc; install clang++ to verify the lock discipline. ##" >&2
        echo "#########################################################" >&2
        gate_skip tsa "clang++ not installed"
        return 0
    fi

    # Library + benches + examples cover every annotated TU; tests
    # stay off so the gate never depends on gtest building under a
    # second toolchain.
    echo "== thread-safety configure ($clangxx, REGPU_THREAD_SAFETY=ON) =="
    cmake -B "$TSA_DIR" -S . -DCMAKE_CXX_COMPILER="$clangxx" \
        -DREGPU_THREAD_SAFETY=ON -DREGPU_BUILD_TESTS=OFF

    echo "== thread-safety build (-Werror=thread-safety) =="
    cmake --build "$TSA_DIR" -j"$(nproc)"
    echo "thread-safety analysis: zero warnings"
    gate_end tsa
}

run_tsan_pass() {
    gate_begin tsan
    echo "== TSan configure (-DREGPU_SANITIZE=thread) =="
    cmake -B "$TSAN_DIR" -S . -DREGPU_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DREGPU_BUILD_BENCHES=OFF -DREGPU_BUILD_EXAMPLES=OFF

    echo "== TSan build (parallel runner + stress + obs + tile loop suites) =="
    cmake --build "$TSAN_DIR" -j"$(nproc)" \
        --target test_parallel_runner test_parallel_stress test_obs \
                 test_memo test_pipeline_integration

    echo "== TSan ctest (determinism + contention stress + obs rings + tile loop) =="
    (cd "$TSAN_DIR" \
         && ctest --output-on-failure \
                  -R '^(test_parallel_runner|test_parallel_stress|test_obs|test_memo|test_pipeline_integration)$')
    gate_end tsan
}

run_sanitize_pass() {
    gate_begin asan
    echo "== sanitize configure (ASan + UBSan) =="
    # Examples stay on: the results-ledger tests drive suite_cli, so
    # real scenes run the merge's emission of each tile's texel capture
    # and the cache model under the sanitizers, not only the unit
    # suites.
    cmake -B "$SANITIZE_DIR" -S . -DREGPU_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DREGPU_BUILD_BENCHES=OFF -DREGPU_BUILD_EXAMPLES=ON

    echo "== sanitize build =="
    cmake --build "$SANITIZE_DIR" -j"$(nproc)"

    echo "== sanitize ctest (unit + results ledger + trace parser + tile records) =="
    (cd "$SANITIZE_DIR" && ctest --output-on-failure -j"$(nproc)" -L unit)
    # test_trace and test_pipeline_integration are labelled
    # integration, but hostile trace payloads reach the parser in the
    # one, and in the other the merge sends tiles' texel captures,
    # records' included, indexing textures by captured texel indices,
    # so both run under the sanitizers too.
    (cd "$SANITIZE_DIR" \
         && ctest --output-on-failure -j2 --no-tests=error \
                  -R '^(results_ledger_tile_jobs_(1|4)|test_trace|test_pipeline_integration)$')
    gate_end asan
}

run_fma_pass() {
    gate_begin fma
    echo "== FMA golden gate (-mfma) =="
    if ! grep -qw fma /proc/cpuinfo 2> /dev/null; then
        echo "#########################################################" >&2
        echo "## WARNING: this CPU has no FMA — SKIPPING the -mfma   ##" >&2
        echo "## golden gate. Run it on an FMA host to check that    ##" >&2
        echo "## simulated numbers do not depend on -march.          ##" >&2
        echo "#########################################################" >&2
        gate_skip fma "no fma in /proc/cpuinfo"
        return 0
    fi

    # gcc fuses a*b+c into an FMA wherever the target has one unless
    # contraction is off; the top-level -ffp-contract=off must keep
    # the ledger and the paper tables byte-identical under -mfma. The
    # raster, texture, color and cache suites hold the oracles of the
    # lane kernel's products and sums, where contraction would change
    # bits first.
    cmake -B "$FMA_DIR" -S . -DCMAKE_CXX_FLAGS=-mfma
    cmake --build "$FMA_DIR" -j"$(nproc)" --target suite_cli paper_figures \
        test_raster test_texture test_color test_cache
    (cd "$FMA_DIR" \
         && ctest --output-on-failure -j2 --no-tests=error \
                  -R '^(results_ledger_tile_jobs_(1|4)|paper_figures_golden|test_(raster|texture|color|cache))$')
    gate_end fma
}

run_bench_pass() {
    gate_begin bench
    echo "== perfbench statistics self-test =="
    python3 perfbench/test_stats.py
    gate_end bench
}

run_obs_smoke() {
    gate_begin obs
    echo "== observability smoke (--obs-dir artifacts + byte-identity) =="
    local obs_tmp
    obs_tmp=$(mktemp -d)
    trap 'rm -rf "$obs_tmp"' RETURN

    # Same CSV path for every run so the "wrote ..." stdout lines
    # match; the determinism contract is that enabling observability
    # (timeline + tile detail + artifacts) changes NEITHER stdout nor
    # the CSV, at any worker count.
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re --frames 4 \
        --width 256 --height 160 --csv "$obs_tmp/out.csv" \
        > "$obs_tmp/base.stdout" 2> /dev/null
    cp "$obs_tmp/out.csv" "$obs_tmp/base.csv"
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re --frames 4 \
        --width 256 --height 160 --csv "$obs_tmp/out.csv" \
        --obs-dir "$obs_tmp/obs1" --obs-tiles --progress \
        > "$obs_tmp/obs1.stdout" 2> /dev/null
    cmp "$obs_tmp/base.stdout" "$obs_tmp/obs1.stdout"
    cmp "$obs_tmp/base.csv" "$obs_tmp/out.csv"
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re --frames 4 \
        --width 256 --height 160 --csv "$obs_tmp/out.csv" \
        --obs-dir "$obs_tmp/obs8" --jobs 8 \
        > "$obs_tmp/obs8.stdout" 2> /dev/null
    cmp "$obs_tmp/base.stdout" "$obs_tmp/obs8.stdout"
    cmp "$obs_tmp/base.csv" "$obs_tmp/out.csv"
    echo "stdout+CSV byte-identical with obs off/on, --jobs 1 and 8"

    # Artifact validation: the timeline must be loadable JSON in
    # trace-event form, the JSONL must carry one object per frame,
    # and heatmap dimensions must match the 256x160/16 => 16x10 grid.
    python3 - "$obs_tmp/obs1" <<'EOF'
import json, sys
d = sys.argv[1]

t = json.load(open(d + "/timeline.trace.json"))
events = t["traceEvents"]
assert events, "empty timeline"
for e in events:
    for field in ("name", "ph", "pid", "tid", "ts"):
        assert field in e, f"event missing {field}: {e}"
phases = {e["ph"] for e in events}
assert "X" in phases and "C" in phases and "M" in phases, phases
spans = {e["name"] for e in events if e["ph"] == "X"}
for expected in ("run", "frame", "geometry", "raster", "tile"):
    assert expected in spans, f"no '{expected}' span: {sorted(spans)}"

for tag in ("ccs.Baseline", "ccs.RE"):
    lines = open(f"{d}/{tag}.frames.jsonl").read().splitlines()
    assert len(lines) == 4, f"{tag}: {len(lines)} JSONL lines, want 4"
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["frame"] == i and obj["tag"] == tag
        assert obj["counters"]["frames"] == 1, "not delta-valued"
    for metric in ("re", "te", "dram"):
        rows = open(f"{d}/{tag}.heat.{metric}.csv").read().splitlines()
        assert rows[0] == "frame,tileX,tileY,value"
        assert len(rows) == 1 + 4 * 16 * 10, f"{tag}.{metric}: {len(rows)}"
        header = open(f"{d}/{tag}.{metric}.total.ppm", "rb").read(20)
        assert header.startswith(b"P6\n16 10\n255\n"), header
print("obs artifacts validated: timeline, JSONL, heatmaps")
EOF
    gate_end obs
}

run_build_pass() {
    gate_begin build
    echo "== configure =="
    cmake -B "$BUILD_DIR" -S .
    echo "== build =="
    cmake --build "$BUILD_DIR" -j"$(nproc)"
    gate_end build
}

case "${1:-}" in
  --lint)
    run_lint_pass
    echo "== OK =="
    exit 0
    ;;
  --analyze)
    run_analyze_pass
    echo "== OK =="
    exit 0
    ;;
  --tidy)
    run_tidy_pass
    echo "== OK =="
    exit 0
    ;;
  --tsa)
    run_tsa_pass
    echo "== OK =="
    exit 0
    ;;
  --tsan)
    run_tsan_pass
    echo "== OK =="
    exit 0
    ;;
  --sanitize)
    run_sanitize_pass
    echo "== OK =="
    exit 0
    ;;
  --fma)
    run_fma_pass
    echo "== OK =="
    exit 0
    ;;
  --obs)
    run_lint_pass
    run_analyze_pass
    run_bench_pass
    run_build_pass
    run_obs_smoke
    echo "== OK =="
    exit 0
    ;;
esac

LABEL_ARGS=()
if [[ "${1:-}" == "--unit" ]]; then
    LABEL_ARGS=(-L unit)
fi

# The linter, analyzer and benchmark self-test need no toolchain:
# they gate every pass, before the build.
run_lint_pass
run_analyze_pass
run_bench_pass

run_build_pass

gate_begin ctest
echo "== ctest =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)" "${LABEL_ARGS[@]}")
gate_end ctest

if [[ "${1:-}" != "--unit" ]]; then
    gate_begin smokes
    echo "== suite_cli parallel determinism + traffic-conservation smoke =="
    # --assert-conservation makes every run verify the memory
    # hierarchy's byte accounting (bytes-in == L1 hits + L2 fills +
    # DRAM traffic at every level boundary) and exit non-zero on any
    # violation. Without --quiet, stdout carries the per-cell
    # summaries streamed from the runner's in-order callback; only
    # the "wrote <csv>" line names a run-specific file, so it is
    # left out of the comparison.
    seq_csv=$(mktemp)
    par_csv=$(mktemp)
    seq_out=$(mktemp)
    par_out=$(mktemp)
    replay_csv=$(mktemp)
    trace_dir=$(mktemp -d)
    CLEANUP_PATHS+=("$seq_csv" "$par_csv" "$seq_out" "$par_out" \
                    "$replay_csv" "$trace_dir")
    "$BUILD_DIR"/suite_cli --workload all --tech base,re --frames 6 \
        --width 256 --height 160 --csv "$seq_csv" --jobs 1 \
        --record-dir "$trace_dir" --assert-conservation > "$seq_out"
    "$BUILD_DIR"/suite_cli --workload all --tech base,re --frames 6 \
        --width 256 --height 160 --csv "$par_csv" --jobs 4 \
        --assert-conservation > "$par_out"
    cmp "$seq_csv" "$par_csv"
    cmp <(grep -vxF "wrote $seq_csv" "$seq_out") \
        <(grep -vxF "wrote $par_csv" "$par_out")
    echo "parallel sweep stdout and CSV are bit-identical to sequential"

    echo "== tile worker pool determinism smoke (--tile-jobs 1/4/8, obs on/off) =="
    # The intra-frame pool's contract: tile-parallel rendering is
    # byte-identical to the serial pipeline for any worker count,
    # with observability both off and on (the obs run also exercises
    # the per-worker gpu.tileWorker spans). Besides the CSV, every obs
    # artifact but the timeline (per-frame counters, heatmaps, images)
    # must match between --tile-jobs 1 and 8.
    tile1_csv=$(mktemp)
    tile4_csv=$(mktemp)
    tile8_csv=$(mktemp)
    tile1_obs_dir=$(mktemp -d)
    tile_obs_dir=$(mktemp -d)
    CLEANUP_PATHS+=("$tile1_csv" "$tile4_csv" "$tile8_csv" \
                    "$tile1_obs_dir" "$tile_obs_dir")
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re,te,memo --frames 4 \
        --width 256 --height 160 --quiet --csv "$tile1_csv" \
        --tile-jobs 1 --obs-dir "$tile1_obs_dir" 2> /dev/null
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re,te,memo --frames 4 \
        --width 256 --height 160 --quiet --csv "$tile4_csv" \
        --tile-jobs 4 2> /dev/null
    "$BUILD_DIR"/suite_cli --workload ccs --tech base,re,te,memo --frames 4 \
        --width 256 --height 160 --quiet --csv "$tile8_csv" \
        --tile-jobs 8 --obs-dir "$tile_obs_dir" 2> /dev/null
    cmp "$tile1_csv" "$tile4_csv"
    cmp "$tile1_csv" "$tile8_csv"
    grep -q '"tileWorker"' "$tile_obs_dir"/timeline.trace.json
    cmp <(ls "$tile1_obs_dir") <(ls "$tile_obs_dir")
    tile_artifacts=0
    for artifact in "$tile1_obs_dir"/*; do
        name=$(basename "$artifact")
        if [ "$name" != timeline.trace.json ]; then
            cmp "$artifact" "$tile_obs_dir/$name"
            tile_artifacts=$((tile_artifacts + 1))
        fi
    done
    [ "$tile_artifacts" -gt 0 ]
    # The per-frame counter tracks (tiles served from records, texel
    # repeat hits, ...) sit in the timeline, whose timestamps differ
    # from run to run: compare each track's values instead.
    python3 - "$tile1_obs_dir" "$tile_obs_dir" <<'EOF'
import json, sys
def tracks(d):
    out = {}
    for e in json.load(open(d + "/timeline.trace.json"))["traceEvents"]:
        if e["ph"] == "C":
            out.setdefault(e["cat"] + "." + e["name"], []).append(e["args"])
    return out
one, eight = tracks(sys.argv[1]), tracks(sys.argv[2])
assert "gpu.texelRepeatHitsPerFrame" in one, sorted(one)
differ = sorted(k for k in one.keys() | eight.keys()
                if one.get(k) != eight.get(k))
assert not differ, f"counter tracks differ at --tile-jobs 1 and 8: {differ}"
print(f"{len(one)} obs counter tracks are identical at --tile-jobs 1 and 8")
EOF
    echo "tile-pool CSV is bit-identical across --tile-jobs 1/4/8 (obs on/off)"
    echo "$tile_artifacts obs artifacts are bit-identical at --tile-jobs 1 and 8"

    echo "== trace record->verify->replay smoke =="
    "$BUILD_DIR"/trace_cli verify "$trace_dir"/*.rgputrace
    "$BUILD_DIR"/suite_cli --workload all --tech base,re --frames 6 \
        --width 256 --height 160 --quiet --csv "$replay_csv" --jobs 4 \
        --replay-dir "$trace_dir" --assert-conservation
    cmp "$seq_csv" "$replay_csv"
    echo "trace replay CSV is bit-identical to the live run"

    echo "== micro_memsystem hierarchy-walk smoke =="
    "$BUILD_DIR"/micro_memsystem --accesses 200000 --mix-frames 4
    gate_end smokes

    run_obs_smoke
    run_tidy_pass
    run_tsa_pass
    run_sanitize_pass
    run_tsan_pass
    run_fma_pass
fi

echo "== OK =="
