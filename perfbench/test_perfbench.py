#!/usr/bin/env python3
"""The benchmark's own test, on the smoke size of every workload.

Checks that every metric BENCHMARK.json names is printed, with its unit, in
the table and in the result object; that a corrupted expected optimum makes
layer-closure fail with a non-zero exit; and that the command fails fast,
without a result, when the library sources are absent.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload, "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(completed):
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    spec = load_spec()

    def check_printed(self, workload, trace, metrics):
        completed = run(workload, trace)
        self.assertEqual(completed.returncode, 0, completed.stderr)
        result = result_of(completed)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        table = completed.stdout.splitlines()[:-1]
        for metric in metrics:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))
            self.assertTrue(
                any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                    for line in table),
                "%s: %s not in the table with unit %s" % (workload, metric["name"],
                                                          metric["unit"]))

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_printed(workload, 0, self.spec["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check_printed(workload, 1, self.spec["per_layer"])

    def test_corrupted_expected_optimum_fails(self):
        completed = run("layer-closure", 0, "--expected-optima", "550,548,281,278")
        self.assertNotEqual(completed.returncode, 0)
        result = result_of(completed)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_fails_fast_without_library_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated-checkout")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(isolated, path))
            completed = run("paper-synth", 0, cwd=isolated,
                            script=os.path.join(isolated, "perfbench", "run.py"))
            self.assertNotEqual(completed.returncode, 0)
            self.assertEqual(completed.stdout.strip(), "")
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
