"""Self-test of the benchmark.

Usage (from the repository root; takes a few minutes):
    python3 perfbench/selftest.py

It checks that every count in the traced run (the ``*.calls`` metrics, span
and pull counts, the computed scan length, yielded fractions and SVG bytes)
repeats exactly across two runs with the same seed, and that the benchmark
refuses to run, printing no result, where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class TracedCountsRepeat(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, second = (result(run(workload, 0, 1)) for _ in range(2))
                self.assertTrue(first["correct"] and second["correct"])
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class RefusesWithoutSource(unittest.TestCase):
    def test_bare_directory_fails_without_result(self):
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(SPEC["workloads"][0]["name"], 0, 0, cwd=Path(bare))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
