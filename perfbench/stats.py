"""Statistics the benchmark reports and the rules for comparing runs.

Used by run.py for every reported timing, and by the compare command
for judging a change against its parent:

    python3 perfbench/stats.py compare parent.jsonl change.jsonl

Each .jsonl file holds the result lines (the last stdout line of
run.py) of runs of one commit, one per line; line i of both files is
pair i. Run parent and change alternately, same seeds, same settings.
"""

import json
import math
import statistics
import sys
from pathlib import Path

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_TAIL_SAMPLES = 10
# A gain needs the change to win this share of all pairs run.
WIN_SHARE = 0.9


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between
    closest ranks, as numpy's default method."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-th percentile
    rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def percentile_supported(n, q):
    """True when n samples leave at least MIN_TAIL_SAMPLES beyond the
    q-th percentile."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def fastest_half(times):
    """Indices of the fastest ceil(n/2) of n repetitions of one piece
    of work, fastest first. Interference from other processes on a
    shared host only ever adds time, so the slower half carries the
    noise and the faster half the cost of the work."""
    order = sorted(range(len(times)), key=lambda i: times[i])
    return order[:(len(times) + 1) // 2]


def at_gauge_speed(times, gauges, gauge_ref):
    """Express repetition times at the host speed where the gauge takes
    gauge_ref: times[i] * gauge_ref / gauges[i], gauges[i] being the
    fixed gauge's time measured just before repetition i. A host that
    runs everything k times slower scales both and cancels out."""
    return [t * gauge_ref / g for t, g in zip(times, gauges)]


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worsening(parent, change, better):
    """Direction-normalised change of a metric from parent to change,
    as a share of the parent: positive means worse, whichever way the
    metric improves."""
    if parent == 0:
        raise ValueError("metric has a zero parent value")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def is_regression(parent_median, change_median, better, bound):
    """True when the change's median is worse than the parent's by
    more than bound (a share of the parent's median)."""
    return worsening(parent_median, change_median, better) > bound


def paired_gain(parent, change, better):
    """The paired-run rule for claiming a gain. parent[i] and change[i]
    form pair i. The change must win at least WIN_SHARE of all pairs
    (ties count for neither side) and the medians must differ by more
    than the parent's own quartile spread (Q3 - Q1)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs")
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = statistics.median(change) - statistics.median(parent)
    improved = gap < 0 if better == "lower" else gap > 0
    return {
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= WIN_SHARE * len(parent) and improved
                and abs(gap) > q3 - q1,
    }


def _load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(parent_path, change_path, bench_path):
    """Print, per metric, both sides' medians and quartiles, the gain
    rule and the regression verdict against the metric's bound."""
    bench = json.loads(Path(bench_path).read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = _load(parent_path), _load(change_path)
    regressed = False
    for name, spec in specs.items():
        p = [r["metrics"][name]["value"] for r in parent
             if name in r["metrics"]]
        c = [r["metrics"][name]["value"] for r in change
             if name in r["metrics"]]
        if len(p) < 2 or len(p) != len(c):
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        rule = paired_gain(p, c, spec["better"])
        line = (f"{name:32s} parent {pm:.6g} (spread {quartile_spread(p):.3f})"
                f"  change {cm:.6g} (spread {quartile_spread(c):.3f})"
                f"  wins {rule['wins']}/{rule['pairs']}"
                f"{'  GAIN' if rule['gain'] else ''}")
        bound = spec.get("bound")
        if bound is not None:
            if quartile_spread(p) > bound:
                line += "  unresolved (spread above bound)"
            elif is_regression(pm, cm, spec["better"], bound):
                line += f"  REGRESSION (> {bound:.0%})"
                regressed = True
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "compare":
        sys.exit("usage: stats.py compare PARENT.jsonl CHANGE.jsonl")
    sys.exit(compare(sys.argv[2], sys.argv[3],
                     Path(__file__).resolve().parent.parent
                     / "BENCHMARK.json"))
