#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py over fixture result lines, for
scripts/bench_pairs.py over fake checkouts, and a key check of the perf
history in BENCH_perfbench.json.

    python3 scripts/tests/test_bench_compare.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(SCRIPTS))
sys.dont_write_bytecode = True  # keep scripts/ free of __pycache__

import bench_compare  # noqa: E402
import bench_pairs  # noqa: E402

SPECS = {
    "end_to_end": [
        {"name": "peer_rounds_per_s", "unit": "peer-rounds/s", "better": "higher", "bound": 0.25},
        {"name": "round_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
}


def result_line(failed=0, attempted=100, **metrics):
    """One run.py last line carrying the given metric values."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
        }
    )


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = Path(self.dir.name)
        self.bench = self.root / "BENCHMARK.json"
        self.bench.write_text(json.dumps(SPECS))

    def tearDown(self):
        self.dir.cleanup()

    def compare(self, parent_lines, change_lines, bench=None):
        """Runs the script; returns (exit status, {metric: row cells})."""
        p, c = self.root / "parent.jsonl", self.root / "change.jsonl"
        p.write_text("\n".join(parent_lines) + "\n")
        c.write_text("\n".join(change_lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = bench_compare.main([str(p), str(c), "--benchmark", str(bench or self.bench)])
        rows = {}
        for line in out.getvalue().splitlines():
            cells = [x.strip() for x in line.strip("|").split("|")]
            if len(cells) == 9 and cells[0] not in ("metric", "---"):
                rows[cells[0]] = cells
        self.output = out.getvalue()
        return status, rows

    def test_clear_gain_is_better(self):
        parent = [result_line(peer_rounds_per_s=v) for v in (100, 102, 98, 101, 99) * 2]
        change = [result_line(peer_rounds_per_s=v) for v in (120, 119, 121, 118, 122) * 2]
        status, rows = self.compare(parent, change)
        self.assertEqual(status, 0)
        row = rows["peer_rounds_per_s"]
        self.assertEqual(row[2], "100")  # parent median
        self.assertEqual(row[3], "120")  # change median
        self.assertEqual(row[4], "1.200")
        self.assertEqual(row[6], "10/10")
        self.assertEqual(row[8], "better")

    def test_gain_from_fewer_than_ten_pairs_is_not_claimed(self):
        parent = [result_line(peer_rounds_per_s=v) for v in (100, 102, 98, 101, 99)]
        change = [result_line(peer_rounds_per_s=v) for v in (120, 119, 121, 118, 122)]
        _, rows = self.compare(parent, change)
        self.assertEqual(rows["peer_rounds_per_s"][6], "5/5")
        self.assertEqual(rows["peer_rounds_per_s"][8], "few pairs")

    def test_parent_spread_wider_than_effect_gives_no_verdict(self):
        parent = [result_line(round_ms_p50=v) for v in (10, 14, 18, 12, 16)]
        change = [result_line(round_ms_p50=v) for v in (9, 13, 17, 11, 15)]
        status, rows = self.compare(parent, change)
        self.assertEqual(status, 0)
        self.assertEqual(rows["round_ms_p50"][6], "5/5")
        self.assertEqual(rows["round_ms_p50"][8], "none")

    def test_worse_beyond_bound_is_a_regression(self):
        parent = [result_line(peak_rss_mb=v) for v in (200, 201, 199)]
        change = [result_line(peak_rss_mb=v) for v in (230, 231, 229)]
        status, rows = self.compare(parent, change)
        self.assertEqual(status, 1)
        self.assertEqual(rows["peak_rss_mb"][6], "0/3")
        self.assertEqual(rows["peak_rss_mb"][8], "regression")

    def test_worse_within_bound_is_reported_not_failed(self):
        parent = [result_line(peak_rss_mb=v) for v in (200, 201, 199)]
        change = [result_line(peak_rss_mb=v) for v in (210, 211, 209)]
        status, rows = self.compare(parent, change)
        self.assertEqual(status, 0)
        self.assertEqual(rows["peak_rss_mb"][8], "worse")

    def test_median_gain_without_nine_tenths_of_pairs_is_mixed(self):
        parent = [result_line(peer_rounds_per_s=v) for v in (100, 100, 100, 100, 100)]
        change = [result_line(peer_rounds_per_s=v) for v in (130, 130, 130, 90, 90)]
        _, rows = self.compare(parent, change)
        self.assertEqual(rows["peer_rounds_per_s"][6], "3/5")
        self.assertEqual(rows["peer_rounds_per_s"][8], "mixed")

    def test_ties_count_for_neither_side(self):
        parent = [result_line(round_ms_p50=v) for v in (10, 10, 10, 10)]
        change = [result_line(round_ms_p50=v) for v in (10, 8, 8, 8)]
        _, rows = self.compare(parent, change)
        self.assertEqual(rows["round_ms_p50"][6], "3/4")
        self.assertEqual(rows["round_ms_p50"][8], "mixed")

    def test_larger_failed_share_fails(self):
        parent = [result_line(peer_rounds_per_s=100)]
        change = [result_line(failed=1, peer_rounds_per_s=100)]
        status, _ = self.compare(parent, change)
        self.assertEqual(status, 1)
        self.assertIn("failed: parent 0 of 100, change 1 of 100", self.output)

    def test_metrics_missing_from_a_run_are_skipped(self):
        parent = [result_line(peer_rounds_per_s=100, round_ms_p50=10)]
        change = [result_line(peer_rounds_per_s=100)]
        _, rows = self.compare(parent, change)
        self.assertIn("peer_rounds_per_s", rows)
        self.assertNotIn("round_ms_p50", rows)

    def test_unpaired_inputs_are_rejected(self):
        with self.assertRaises(SystemExit):
            self.compare([result_line(peak_rss_mb=1)] * 2, [result_line(peak_rss_mb=1)])
        with self.assertRaises(SystemExit):
            self.compare(["not json"], [result_line(peak_rss_mb=1)])

    def test_repo_benchmark_declaration_is_read(self):
        repo_bench = SCRIPTS.parent / "BENCHMARK.json"
        line = result_line(peer_rounds_per_s=1.0, checkpoint_ms_p50=2.0, setup_s=3.0)
        status, rows = self.compare([line], [line], bench=repo_bench)
        self.assertEqual(status, 0)
        self.assertEqual(set(rows), {"peer_rounds_per_s", "checkpoint_ms_p50", "setup_s"})
        self.assertTrue(all(r[8] == "none" for r in rows.values()))


# A stand-in perfbench/run.py: logs "<side> <args>" to LOG, prints a
# result line naming its side and call number, and exits 1 on the call
# number FAIL_ON (0: never).
FAKE_RUN = """import json, sys
from pathlib import Path
log = Path({log!r})
calls = [l for l in log.read_text().splitlines() if l.startswith({side!r} + " ")]
n = len(calls) + 1
with log.open("a") as f:
    f.write({side!r} + " " + " ".join(sys.argv[1:]) + "\\n")
print("machine line")
print(json.dumps({{"side": {side!r}, "call": n, "metrics": {{}}}}))
sys.exit(1 if n == {fail_on} else 0)
"""


class BenchPairsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = Path(self.dir.name)
        self.log = self.root / "calls.log"
        self.log.write_text("")
        self.out = self.root / "out"

    def tearDown(self):
        self.dir.cleanup()

    def checkout(self, side, fail_on=0):
        run = self.root / side / "perfbench" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(FAKE_RUN.format(log=str(self.log), side=side, fail_on=fail_on))
        return self.root / side

    def run_script(self, *extra, change_fail_on=0):
        argv = [str(self.checkout("parent")), str(self.checkout("change", change_fail_on)),
                "--out", str(self.out), *extra]
        with contextlib.redirect_stderr(io.StringIO()):
            return bench_pairs.main(argv)

    def results(self, side):
        return [json.loads(l) for l in (self.out / f"{side}.jsonl").read_text().splitlines()]

    def test_parent_runs_first_in_odd_pairs(self):
        self.assertEqual(self.run_script("--workload", "churn_checkpoint", "--pairs", "4",
                                         "--seed=7", "--trace", "1"), 0)
        calls = self.log.read_text().splitlines()
        self.assertEqual([c.split()[0] for c in calls],
                         ["parent", "change", "change", "parent"] * 2)
        # Every option but --pairs and --out reaches run.py as given, and
        # nothing is added, so run.py's own defaults hold.
        self.assertTrue(all(c.split(" ", 1)[1] == "--workload churn_checkpoint --seed=7 --trace 1"
                            for c in calls))
        for side in ("parent", "change"):
            self.assertEqual([(r["side"], r["call"]) for r in self.results(side)],
                             [(side, n) for n in range(1, 5)])

    def test_output_feeds_bench_compare(self):
        self.run_script("--pairs", "2")
        with contextlib.redirect_stdout(io.StringIO()):
            status = bench_compare.main([str(self.out / "parent.jsonl"),
                                         str(self.out / "change.jsonl"),
                                         "--benchmark", str(SCRIPTS.parent / "BENCHMARK.json")])
        self.assertEqual(status, 0)

    def test_failed_run_stops_and_keeps_whole_pairs(self):
        with self.assertRaises(SystemExit):
            self.run_script("--pairs", "3", change_fail_on=2)
        self.assertEqual(len(self.results("parent")), 1)
        self.assertEqual(len(self.results("change")), 1)

    def test_checkout_without_run_py_is_rejected(self):
        (self.root / "empty").mkdir()
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit):
            bench_pairs.main([str(self.root / "empty"), str(self.checkout("change"))])


class BenchHistoryTest(unittest.TestCase):
    """BENCH_perfbench.json at the repo root: the per-PR perf trajectory."""

    MACHINE_KEYS = {"nproc", "cpu", "avx512", "compiler", "build_type"}

    def setUp(self):
        root = SCRIPTS.parent
        bench = json.loads((root / "BENCHMARK.json").read_text())
        self.metrics = {m["name"] for m in bench["end_to_end"]}
        self.workloads = {w["name"] for w in bench["workloads"]}
        self.entries = json.loads((root / "BENCH_perfbench.json").read_text())["entries"]

    def check_metrics(self, values, where):
        self.assertIsInstance(values, dict, where)
        self.assertTrue(values, where)
        self.assertLessEqual(set(values), self.metrics, where)

    def test_entries_carry_the_required_keys(self):
        self.assertTrue(self.entries)
        for i, e in enumerate(self.entries):
            where = f"entry {i}"
            self.assertIsInstance(e["pr"], int, where)
            self.assertIn(e["workload"], self.workloads, where)
            self.assertIsInstance(e["seed"], int, where)
            self.assertEqual(set(e["machine"]), self.MACHINE_KEYS, where)
            self.assertIn(e["kind"], ("baseline", "paired"), where)
            if e["kind"] == "baseline":
                self.assertGreater(e["runs"], 0, where)
                self.check_metrics(e["range"], where)
                for lo, hi in e["range"].values():
                    self.assertLessEqual(lo, hi, where)
                continue
            self.assertGreater(e["pairs"], 0, where)
            if e["parent"] is None:  # only the change/parent ratios were recorded
                self.assertIsNone(e["change"], where)
                self.check_metrics(e["ratio"], where)
            else:
                self.check_metrics(e["parent"], where)
                self.assertEqual(set(e["parent"]), set(e["change"]), where)

    def test_entries_are_in_pr_order(self):
        prs = [e["pr"] for e in self.entries if e["kind"] == "paired"]
        self.assertEqual(prs, sorted(prs))


if __name__ == "__main__":
    unittest.main()
