#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/tests/test_run.py

The digest-check test runs the built driver's selftest and is skipped until
perfbench/run.py has built it once.
"""

import collections
import importlib.util
import json
import math
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        cases = {19: None, 20: 5000, 99: 5000, 100: 9000, 999: 9000,
                 1000: 9900, 9999: 9900, 10000: 9990, 100000: 9999}
        for n, expected in cases.items():
            self.assertEqual(run.highest_percentile(n), expected, n)

    def test_chosen_percentile_has_ten_samples_beyond(self):
        for n in range(1, 3000, 7):
            bp = run.highest_percentile(n)
            if bp is None:
                continue
            self.assertGreaterEqual(n - run.rank(n, bp), 10)
            higher = [b for b in run.TAIL_BASIS_POINTS if b > bp]
            for b in higher:
                self.assertLess(n - run.rank(n, b), 10)

    def test_frames_are_cut_into_whole_chunks(self):
        n = run.CHUNK_FRAMES
        passes = [{"frame_ms": [1.0] * (2 * n + 5)}, {"frame_ms": [2.0] * 30}]
        chunks = run.frame_chunks(passes)
        self.assertEqual([len(c) for c in chunks], [n, n, 30])

    def test_frame_percentiles_take_the_median_over_chunks(self):
        n = run.CHUNK_FRAMES
        quiet = [0.5] * (n - 20) + [1.0] * 20
        stalled = [0.5] * (n - 20) + [9.0] * 20
        passes = [{"frame_ms": quiet * 2}, {"frame_ms": stalled}]
        p50, p99, detail = run.frame_percentiles(passes)
        self.assertEqual(p50, 0.5)
        self.assertEqual(p99, 1.0)  # two quiet chunks outvote one stall
        self.assertEqual(detail["tail_percentile"], 99.0)
        self.assertEqual(detail["percentile_chunks"], 3)

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 5000), 50)
        self.assertEqual(run.percentile(values, 9900), 99)
        self.assertEqual(run.percentile(reversed(values), 9000), 90)


class DigestTest(unittest.TestCase):
    @unittest.skipUnless(os.path.exists(run.BINARY), "driver not built yet")
    def test_digest_check_flags_a_single_changed_frame(self):
        proc = subprocess.run([run.BINARY, "selftest"], capture_output=True,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("one changed field of one frame flags exactly that "
                      "frame", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_match_the_pattern(self):
        unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, r"\A[A-Za-z0-9_.-]+\Z")
                self.assertTrue(run.NAME_RE.match(name), name)
                self.assertTrue(unit_re.match(unit), unit)

    def test_benchmark_json_declares_what_run_py_prints(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as f:
            bench = strict_loads(f.read())
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}
            | {m["name"]: m["unit"] for m in bench["per_layer"]},
            run.END_TO_END | run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class OutputTest(unittest.TestCase):
    def test_result_line_is_strict_json_with_the_four_keys(self):
        metrics = {name: 1.5 for name in run.END_TO_END}
        line = run.result_line(True, 10, 0, metrics, run.END_TO_END)
        doc = strict_loads(line)
        self.assertEqual(set(doc), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(doc["metrics"]["fps"],
                         {"value": 1.5, "unit": "frames/s"})
        self.assertNotIn("\n", line)

    def test_non_finite_or_missing_metrics_are_refused(self):
        metrics = {name: 1.0 for name in run.END_TO_END}
        for bad in (math.nan, math.inf, None):
            broken = dict(metrics, fps=bad)
            with self.assertRaises(run.BenchError):
                run.result_line(True, 1, 0, broken, run.END_TO_END)
        del metrics["map"]
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, metrics, run.END_TO_END)


class LedgerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        totals = collections.Counter()
        # gating [0,100) holds stems [10,40); fusion [100,130) is a sibling.
        run.nest_self_times([(10, 40, "stems"), (0, 100, "gating"),
                             (100, 130, "fusion")], totals)
        self.assertEqual(totals, {"gating": 70, "stems": 30, "fusion": 30})

    def test_fold_attributes_worker_lanes_and_reports_residual(self):
        doc = {
            "start_ns": 0, "end_ns": 1000, "workers": 1, "frames": 2,
            "own_fields": ["id", "parent", "frame", "layer", "lane",
                           "start_ns", "dur_ns"],
            # An own gating span nested inside the library's select span.
            "own": [[1, 0, 7, "gating", 1, 100, 300]],
            "obs": {"traceEvents": [
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1},
                {"ph": "X", "name": "phase_a_select", "ts": 0.05,
                 "dur": 0.5, "pid": 0, "tid": 1},
                {"ph": "X", "name": "channel_scan", "ts": 0.6, "dur": 0.3,
                 "pid": 0, "tid": 1},
                {"ph": "X", "name": "not_a_stage", "ts": 0.9, "dur": 0.05,
                 "pid": 0, "tid": 1},
                # The driver lane is not a worker: left out of the share.
                {"ph": "X", "name": "stream_pull", "ts": 0.0, "dur": 1.0,
                 "pid": 0, "tid": 0},
            ]},
        }
        totals, attributed, capacity = run.fold_trace(doc)
        self.assertEqual(totals["gating"], 300)
        self.assertEqual(totals["joint_opt"], 200)
        self.assertEqual(totals["detect.scan"], 300)
        self.assertEqual(totals[run.UNATTRIBUTED], 50)
        self.assertEqual(attributed, 800)
        self.assertEqual(capacity, 1000)
        metrics, _ = run.ledger([doc])
        self.assertAlmostEqual(metrics["runtime.residual_share"], 0.2)
        self.assertAlmostEqual(metrics["gating.us"], 0.15)


if __name__ == "__main__":
    unittest.main()
