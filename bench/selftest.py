"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs each workload for well under a second of measurement (verify runs
report-all a few times, so the whole test takes about half a minute) and
checks the output contract, the seeded inputs, the failure counting and
the traced run's overhead report.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class OutputContract(unittest.TestCase):
    """Every declared metric is printed, by name and with its unit."""

    def assert_contract(self, args: list, section: str) -> dict:
        proc = bench(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        doc = json.loads(lines[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(doc["attempted"], int)
        self.assertIsInstance(doc["failed"], int)
        self.assertGreaterEqual(doc["attempted"], 1)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec[section]}
        self.assertEqual(set(doc["metrics"]), set(declared))
        report = "\n".join(lines[:-1])
        for name, unit in declared.items():
            entry = doc["metrics"][name]
            self.assertEqual(entry["unit"], unit)
            self.assertIsInstance(entry["value"], float)
            self.assertRegex(report, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}(?=\s|$)")
        return doc

    def test_end_to_end_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                args = ["--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", "0"]
                doc = self.assert_contract(args, "end_to_end")
                self.assertTrue(doc["correct"])
                for entry in doc["metrics"].values():
                    self.assertGreater(entry["value"], 0.0)

    def test_traced_run_reports_layers_and_overhead(self):
        args = ["--workload", "search", "--seed", "3", "--seconds", "0.9", "--trace", "1"]
        doc = self.assert_contract(args, "per_layer")
        self.assertTrue(doc["correct"])
        self.assertIn("trace.overhead_pct", doc["metrics"])
        self.assertGreater(doc["metrics"]["trace.span_cost_us"]["value"], 0.0)

    def test_times_are_scaled_by_the_reference_kernel(self):
        out = run.run("trajectory", 3, 0.4, trace=False)
        result, setup, metrics = out["result"], out["setup"], out["doc"]["metrics"]
        self.assertEqual(len(result["op_kernel_s"]), len(result["op_times_s"]))
        want = 1e3 * statistics.median(
            t * run.REFERENCE_S / k for t, k in zip(result["op_times_s"], result["op_kernel_s"])
        )
        self.assertAlmostEqual(metrics["op_p50_ms"]["value"], want, delta=1e-12 * want)
        want = setup["setup_s"] * run.REFERENCE_S / statistics.median(setup["calibration_s"])
        self.assertAlmostEqual(metrics["setup_s"]["value"], want, delta=1e-12 * want)

    def test_each_gap_is_scaled_by_the_samples_on_both_sides(self):
        self.assertEqual(run.around([[1.0], [3.0, 5.0], [9.0]]), [3.0, 5.0])

    def test_every_layer_metric_says_what_it_moves(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        moves = run.load_moves()
        self.assertEqual(set(moves), {m["name"] for m in spec["per_layer"]})


class SeededInputs(unittest.TestCase):
    def test_trajectory_points_follow_the_seed(self):
        xs = workloads.trajectory_xs(5, 400)
        self.assertEqual(xs.tolist(), workloads.trajectory_xs(5, 400).tolist())
        self.assertEqual(xs[:100].tolist(), workloads.trajectory_xs(5, 100).tolist())
        self.assertNotEqual(xs.tolist(), workloads.trajectory_xs(6, 400).tolist())
        self.assertTrue(((xs > 0.0) & (xs <= 1.0)).all())
        tail = xs[9::10]
        self.assertEqual(len(tail), 40)
        self.assertTrue(((tail >= 1e-6) & (tail <= 1e-2)).all())
        # the tail reaches where gamma_point is known to fail, so the defect shows
        self.assertLess(tail.min(), 1e-3)

    def test_search_starts_follow_the_seed(self):
        base = workloads._untilted_chart()
        first = [workloads.search_start(5, i, base) for i in range(4)]
        again = [workloads.search_start(5, i, base) for i in range(4)]
        other = [workloads.search_start(6, i, base) for i in range(4)]
        for (a, sa), (b, sb), (c, sc) in zip(first, again, other):
            self.assertEqual(a.tolist(), b.tolist())
            self.assertEqual(sa, sb)
            self.assertNotEqual(a.tolist(), c.tolist())
        self.assertNotEqual(first[0][0].tolist(), first[1][0].tolist())


class FixedWork(unittest.TestCase):
    def test_a_seed_always_attempts_and_fails_the_same_operations(self):
        first = workloads.run_trajectory(5, 0.2)
        again = workloads.run_trajectory(5, 0.2)
        self.assertEqual(first["attempted"], workloads.work_count(0.2, workloads.POINTS_PER_S))
        for key in ("attempted", "raised", "mismatched"):
            self.assertEqual(first[key], again[key])
        # the small-x tail still reaches gamma_point's failures
        self.assertGreater(sum(first["raised"].values()), 0)

    def test_every_run_does_at_least_one_operation(self):
        self.assertEqual(workloads.work_count(1e-3, workloads.STARTS_PER_S), 1)
        self.assertEqual(workloads.work_count(25.0, workloads.STARTS_PER_S), 150)


class FailureCounting(unittest.TestCase):
    def test_injected_record_error_is_a_failed_operation(self):
        out = run.verify_once(run.child_env(ROOT), ROOT, inject=True)
        self.assertEqual(out["exit"], 3)
        self.assertEqual(out["attempted"], 13)
        self.assertGreaterEqual(out["failed"], 1)

    def test_wrong_trajectory_output_is_caught(self):
        self.assertTrue(workloads.trajectory_point(0.5))
        original = workloads.triplets_alg
        workloads.triplets_alg = lambda a: tuple(v * (1.0 + 1e-8) for v in original(a))
        try:
            self.assertFalse(workloads.trajectory_point(0.5))
        finally:
            workloads.triplets_alg = original

    def test_missing_sources_exit_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "trajectory", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_record_errors(self):
        tracer = workloads.Tracer()

        def fail():
            raise ArithmeticError("boom")

        def outer():
            tracer.call("inner", lambda: None)
            tracer.call("bad", fail)

        with self.assertRaises(ArithmeticError):
            tracer.call("outer", outer)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "bad"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(tracer.errors("bad"), 1)
        self.assertEqual(tracer.errors("outer"), 1)
        self.assertEqual(tracer.errors("inner"), 0)
        self.assertTrue(all(s[2] >= s[1] for s in tracer.spans))

    def test_tail_latency_keeps_ten_samples_beyond(self):
        def names(n):
            return [entry[0] for entry in run.latencies("op", [i / 1e3 for i in range(n)])]

        self.assertEqual(names(1000), ["op_p50_ms", "op_p99_ms"])
        self.assertEqual(names(200), ["op_p50_ms", "op_p90_ms"])
        self.assertEqual(names(50), ["op_p50_ms"])


if __name__ == "__main__":
    unittest.main()
