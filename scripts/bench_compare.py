#!/usr/bin/env python3
"""Compare paired perfbench runs of a parent and a change.

    python3 scripts/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE each hold one line per run: the last stdout line of
`perfbench/run.py` (a JSON object with correct, attempted, failed and
metrics). Line i of PARENT and line i of CHANGE form pair i, so run
them alternately on the same machine, one workload per file pair.

For every end-to-end metric BENCHMARK.json lists, the table gives each
side's median, the change/parent ratio, the parent's interquartile
range, and in how many pairs the change was better (ties count for
neither). The verdict column applies the benchmark's rules:

  regression  the change's median is worse than the parent's by more
              than the metric's bound
  none        the parent's IQR exceeds the median difference, so the
              runs cannot tell the two apart
  better      better in the median and in at least 9/10 of at least
              ten pairs
  few pairs   as "better", but from fewer than ten pairs
  worse       worse in the median, within the bound
  mixed       better in the median, but in fewer than 9/10 of the pairs

The exit status is 1 when a metric regresses beyond its bound or the
change fails a larger share of its output checks than the parent, and
0 otherwise. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def read_runs(path):
    """Parses one run.py result line per non-blank line of `path`."""
    runs = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"{path}:{n}: not a run.py result line: {e}")
        if not isinstance(run, dict) or "metrics" not in run:
            raise SystemExit(f"{path}:{n}: result line has no metrics")
        runs.append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare_metric(spec, parent, change):
    """Summarizes one metric over paired runs; None when a side lacks it."""
    name = spec["name"]
    if not all(name in r["metrics"] for r in parent + change):
        return None
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    worse_by = -sign * (c_med - p_med) / p_med if p_med else 0.0
    if worse_by > spec["bound"]:
        verdict = "regression"
    elif abs(c_med - p_med) <= iqr:
        verdict = "none"
    elif worse_by > 0:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(p):
        verdict = "better" if len(p) >= MIN_PAIRS else "few pairs"
    else:
        verdict = "mixed"
    return {
        "name": name,
        "unit": spec["unit"],
        "parent": p_med,
        "change": c_med,
        "ratio": c_med / p_med if p_med else float("nan"),
        "parent_iqr": iqr,
        "wins": wins,
        "pairs": len(p),
        "bound": spec["bound"],
        "verdict": verdict,
    }


def failed_counts(runs):
    """(failed, attempted) output checks summed over runs."""
    return sum(r.get("failed", 0) for r in runs), sum(r.get("attempted", 0) for r in runs)


def share(counts):
    failed, attempted = counts
    return failed / attempted if attempted else 0.0


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.4e}"


def render(rows, parent_fail, change_fail):
    lines = [
        "| metric | unit | parent median | change median | change/parent | parent IQR "
        "| wins/pairs | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['name']} | {r['unit']} | {fmt(r['parent'])} | {fmt(r['change'])} "
            f"| {r['ratio']:.3f} | {fmt(r['parent_iqr'])} | {r['wins']}/{r['pairs']} "
            f"| {r['bound']} | {r['verdict']} |"
        )
    lines.append(
        f"failed: parent {parent_fail[0]} of {parent_fail[1]}, "
        f"change {change_fail[0]} of {change_fail[1]}"
    )
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="parent result lines, one run per line")
    ap.add_argument("change", help="change result lines, in the same pair order")
    ap.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
        help="benchmark declaration holding the end-to-end metrics and bounds",
    )
    args = ap.parse_args(argv)

    specs = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent, change = read_runs(args.parent), read_runs(args.change)
    if not parent or len(parent) != len(change):
        raise SystemExit(
            f"need the same nonzero number of runs on both sides "
            f"(parent {len(parent)}, change {len(change)})"
        )
    rows = [r for r in (compare_metric(s, parent, change) for s in specs) if r]
    pf, cf = failed_counts(parent), failed_counts(change)
    print(render(rows, pf, cf))
    bad = share(cf) > share(pf) or any(r["verdict"] == "regression" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
