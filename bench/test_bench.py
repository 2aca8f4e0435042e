"""Self-test of the benchmark at toy sizes.

Checks that every metric named in BENCHMARK.json is printed with its unit,
traced and untraced, and that a corrupted output or a raised library error
counts as a failed study while the other studies still run.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Imported by the worker interpreters when its directory is on PYTHONPATH.
# It scales every inverse-quartic lattice sum by 1.5 and makes every slab
# sum on an anisotropic box raise BudgetError.
CORRUPTING_SITECUSTOMIZE = '''
import dataclasses
try:
    from boxqed import coulomb, errors
except ImportError:         # run.py itself has no src/ on its path
    coulomb = None
if coulomb is not None:
    original = coulomb.riemann_sum

    def riemann_sum(summand, L, *args, **kwargs):
        if summand.name == "screened-inverse-square":
            raise errors.BudgetError("deliberate failure")
        result = original(summand, L, *args, **kwargs)
        return dataclasses.replace(result, value=1.5 * result.value)

    coulomb.riemann_sum = riemann_sum
'''


def run_bench(workload, trace, extra_path=None):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if extra_path:
        env["PYTHONPATH"] = str(extra_path)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, kind):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                text, result = run_bench(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(text))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for name, unit in expected.items():
                    self.assertTrue(
                        any(line.startswith(f"{name}: ")
                            and f" {unit}" in line for line in text),
                        f"{name} is not printed with its unit {unit}")
                    self.assertIsInstance(result["metrics"][name]["value"],
                                          float)

    def test_end_to_end_metrics_untraced(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_traced(self):
        self.check(1, "per_layer")


class FailuresCounted(unittest.TestCase):
    def setUp(self):
        (BENCH / ".out").mkdir(exist_ok=True)
        self.site = Path(tempfile.mkdtemp(dir=BENCH / ".out"))
        (self.site / "sitecustomize.py").write_text(CORRUPTING_SITECUSTOMIZE)

    def tearDown(self):
        shutil.rmtree(self.site, ignore_errors=True)

    def test_corrupted_and_raising_studies_fail(self):
        text, result = run_bench("lattice-sums", 0, extra_path=self.site)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 2)
        self.assertIn("study cube-family: FAILED", text)
        self.assertIn("study anisotropic-family: FAILED", text)
        self.assertTrue(any("raised BudgetError: deliberate failure" in line
                            for line in text))
        self.assertIn("failed_frac: 1 (2 of 2 studies)", text)


if __name__ == "__main__":
    unittest.main()
