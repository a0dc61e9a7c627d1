"""Tests of the benchmark itself, on tiny job lists.

    python3 bench/selftest.py

Each workload must print every metric of BENCHMARK.json with its unit, its
exact counters must repeat between two traced runs of one seed, and a
corrupted result must be caught by the checks and raise failed_frac.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

WORKLOADS = ("line", "kap", "plane", "cli")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = (".nodes", "_calls", ".calls", ".result_bits", "artifact_bytes",
         ".feasible", ".infeasible", ".failed", "jobs_per_pass")


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def corrupt(res):
    """A plausible but wrong certificate of the same type."""
    if isinstance(res, list):
        return [corrupt(res[0])] + res[1:]
    if hasattr(res, "stdout"):
        return dataclasses.replace(res, stdout=res.stdout.replace(
            "cover intervals", "intervals"))
    if hasattr(res, "lower_bound"):
        lb = res.lower_bound
        return dataclasses.replace(res, lower_bound=type(lb)(lb.lo + 1,
                                                             lb.hi + 1))
    if hasattr(res, "verdict"):
        flip = "feasible" if res.verdict != "feasible" else \
            "infeasible_at_depth"
        return dataclasses.replace(res, verdict=flip)
    if hasattr(res, "value"):
        return dataclasses.replace(res, value=res.value + 1)
    raise TypeError(f"no corruption for {type(res).__name__}")


class TestMetricsPrinted(unittest.TestCase):
    def test_end_to_end(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out, lines = bench(w, 0)
                self.assertEqual(set(out), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in
                                  out["metrics"].items()}, want)
                for v in out["metrics"].values():
                    self.assertGreater(v["value"], 0)
                text = "\n".join(lines)
                for name, unit in {**want, "failed_frac": "ratio"}.items():
                    self.assertRegex(text, rf"{name}\s+\S+ {unit}")
                self.assertIn("results_sha256", text)

    def test_per_layer_and_exact_counters(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, lines1 = bench(w, 1)
                second, lines2 = bench(w, 1)
                self.assertTrue(first["correct"])
                self.assertEqual({k: v["unit"] for k, v in
                                  first["metrics"].items()}, want)
                for name in want:
                    if name.endswith(EXACT):
                        self.assertEqual(first["metrics"][name],
                                         second["metrics"][name], name)
                sha = [line for line in lines1 if "results_sha256" in line]
                self.assertEqual(sha, [line for line in lines2
                                       if "results_sha256" in line])
                self.assertTrue(any("tracing overhead" in line
                                    for line in lines1))


class TestCheckTheChecker(unittest.TestCase):
    def failed_frac(self, workload: str, tamper=None) -> float:
        os.chdir(ROOT)
        runner = run.Runner(workload, 5, True, tamper)
        try:
            runner.setup()
            samples, _ = runner.loop(0)
        finally:
            runner.cleanup()
        return sum(not s.ok for s in samples) / len(samples)

    def test_corrupted_result_is_caught(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.failed_frac(w), 0)
                hit = self.failed_frac(
                    w, lambda i, job, res: corrupt(res) if i == 0 else res)
                self.assertGreater(hit, 0)


if __name__ == "__main__":
    unittest.main()
