#!/usr/bin/env python3
"""The benchmark's own tests.

1. ffbench_selftest: metric arithmetic on hand-built ExperimentResults.
2. A smoke run (shortened horizons) of every workload in both modes,
   checking the result line against BENCHMARK.json: exactly the keys
   correct/attempted/failed/metrics, every declared metric present with its
   unit, finite values, no failed experiment.

Run from anywhere:  python3 perfbench/tests/run_tests.py
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_line(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_metric_arithmetic(self):
        build_dir = run.build(["ffbench", "ffbench_selftest"])
        done = subprocess.run([str(build_dir / "ffbench_selftest")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)


class SmokeSchema(unittest.TestCase):
    def check(self, workload, trace):
        result = result_line(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Smoke horizons end before the fig loss and load phases, so
            # timeout-driven metrics may read 0 here; full runs do not.
            self.assertGreaterEqual(got["value"], 0, m["name"])

    def test_every_workload_both_modes(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main(verbosity=2)
