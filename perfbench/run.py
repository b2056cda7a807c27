#!/usr/bin/env python3
"""Build and run the swarm simulator benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ (Release) into .bench_build/perfbench; later runs rebuild
incrementally. The benchmark's last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs
every workload untraced and traced, one after another. See
perfbench/README.md for workloads, metrics and seeds.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["static_large", "ecosystem_churn", "churn_checkpoint"]
DEFAULT_SEED = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """Hash of every source the binary is built from: keys the
    final-state digest history, so a rebuild from changed sources never
    compares against digests of the old ones."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(root, build_dir):
    if not (root / "src" / "bittorrent" / "swarm.hpp").is_file():
        fail("simulator sources (src/) not found next to perfbench/")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return build_dir / "swarm_bench"


def run_one(binary, workload, seed, seconds, trace, state_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--state-dir", str(state_dir)]
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    state_dir = root / ".bench_build" / "state" / source_digest(root)

    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds, args.trace, state_dir)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= run_one(binary, workload, args.seed, args.seconds, trace, state_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
