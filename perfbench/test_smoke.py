#!/usr/bin/env python3
"""Smoke tests of the perfbench harness, on tiny inputs (run.py --smoke).

    python3 perfbench/test_smoke.py

Checks that every workload prints every metric BENCHMARK.json names, with its
unit, in both trace modes; that a harness-side corrupted checksum is caught
as a failed operation; and that a call past its deadline is counted as
failed, skips its engine, and does not stall the run.
"""

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seconds=1, inject=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
           "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=120)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Build first, so the timing assertions below see runs, not the build.
        sys.path.insert(0, str(ROOT / "perfbench"))
        import run
        run.build()

    def test_every_metric_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out, _ = bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in out["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)

    def test_corrupted_checksum_is_a_failed_operation(self):
        out, err = bench("phold-la1", inject="corrupt")
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)
        self.assertIn("!= seq reference", err)
        self.assertIn("reproduce:", err)

    def test_call_past_deadline_fails_once_and_does_not_stall(self):
        start = time.monotonic()
        out, err = bench("phold-la1", inject="overrun")
        # One 5 s smoke deadline, not one per round: the engine is skipped.
        self.assertLess(time.monotonic() - start, 30)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        self.assertIn("deadline", err)
        self.assertEqual(out["metrics"]["hj.events_per_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
