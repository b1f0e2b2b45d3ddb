#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 simbench/test_simbench.py

- Every workload in BENCHMARK.json prints exactly the end-to-end metrics
  (--trace 0) and exactly the per-layer metrics (--trace 1) named there,
  with their units, and passes all of its output checks (including the
  recorded reference statistics, which apply at seed 0).
- On every workload, flipping one word of a cell's final memory image
  before the check (--corrupt-cell 0) makes that cell fail, so failed
  and bench.fail_rate rise.

Each run is short (--seconds 1: one or two passes per phase); the
first one builds the benchmark.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "simbench" / "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for wl in SPEC["workloads"]:
            with self.subTest(workload=wl["name"], trace=trace):
                r = run(wl["name"], trace)
                self.assertEqual(sorted(r),
                                 ["attempted", "correct", "failed",
                                  "metrics"])
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                for name, v in r["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics_match_spec(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_match_spec(self):
        self.check(1, "per_layer")


class CorruptionIsCaught(unittest.TestCase):
    def test_corrupted_final_memory_raises_fail_rate(self):
        for workload in (wl["name"] for wl in SPEC["workloads"]):
            with self.subTest(workload=workload):
                clean = run(workload, 1)
                bad = run(workload, 1, "--corrupt-cell", "0")
                self.assertEqual(clean["failed"], 0)
                self.assertEqual(bad["failed"], 1)
                self.assertFalse(bad["correct"])
                self.assertGreater(
                    bad["metrics"]["bench.fail_rate"]["value"],
                    clean["metrics"]["bench.fail_rate"]["value"])


if __name__ == "__main__":
    unittest.main()
