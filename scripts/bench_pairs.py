#!/usr/bin/env python3
"""Run paired perfbench runs of a parent and a change checkout.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--out DIR] \
        --workload NAME [RUN_PY_OPTION ...]

Runs `python3 perfbench/run.py` in each checkout, alternating: the
parent runs first in odd pairs (1, 3, ...) and the change first in even
ones, so drift on the host lands on both sides. Every option other than
--pairs and --out (--workload, --seed, --trace, ...) is passed to run.py
as given, so run.py alone sets their defaults. Each run's last stdout
line is appended to DIR/parent.jsonl or DIR/change.jsonl (both truncated
first; DIR defaults to the current directory), one line per run and
pair i on line i of each, as `scripts/bench_compare.py` reads them. A
pair is written only once both of its runs succeeded; a failed run
stops the script with exit status 2. Standard library only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]


def last_result(checkout, args):
    """Runs perfbench/run.py with `args` in `checkout`; returns its last
    stdout line."""
    done = subprocess.run(RUN + args, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: run in {checkout} exited {done.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"bench_pairs: last line of the run in {checkout} is not JSON") from None
    return lines[-1]


def run_pairs(parent, change, out, pairs, args):
    """Writes `pairs` alternating runs of each checkout to out/*.jsonl."""
    files = {side: out / f"{side}.jsonl" for side in ("parent", "change")}
    for path in files.values():
        path.write_text("")
    checkouts = {"parent": parent, "change": change}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 == 1 else ("change", "parent")
        lines = {}
        for side in order:
            print(f"bench_pairs: pair {i}/{pairs}: {side}", file=sys.stderr, flush=True)
            lines[side] = last_result(checkouts[side], args)
        for side, path in files.items():
            with path.open("a") as f:
                f.write(lines[side] + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("."))
    args, run_args = parser.parse_known_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.out.mkdir(parents=True, exist_ok=True)
    run_pairs(args.parent.resolve(), args.change.resolve(), args.out, args.pairs, run_args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
