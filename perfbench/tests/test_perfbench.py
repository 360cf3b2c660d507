#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the driver (and, when GoogleTest is installed, its unit tests of
the span self-time arithmetic and the percentile rule), then make a short
smoke run of every workload, untraced and traced, and check that every
printed metric has a valid name and a unit and that the JSON result carries
exactly the metrics BENCHMARK.json declares.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def smoke(workload, trace):
    """One smoke run through run.py: (exit code, stdout lines, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.rstrip("\n").split("\n")
    return done.returncode, lines, json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertLessEqual(len(m["name"]), 64)
            self.assertRegex(m["unit"], UNIT)
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class UnitTests(unittest.TestCase):
    def test_span_and_percentile_arithmetic(self):
        try:
            binary = run.build("perfbench_unit_tests")
        except SystemExit:
            self.skipTest("perfbench_unit_tests needs GoogleTest")
        done = subprocess.run([binary], stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check(self, workload, trace, expected):
        code, lines, result = smoke(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertNotIn("FAIL", "\n".join(lines))
        # Every printed metric carries a valid name and a unit.
        printed = [l.split() for l in lines if l.startswith("metric ")]
        self.assertTrue(printed)
        for fields in printed:
            self.assertEqual(len(fields), 4, fields)
            self.assertRegex(fields[1], NAME)
            self.assertRegex(fields[3], UNIT)
        # The JSON result has exactly the declared metrics, with their units.
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float))
        return lines, result

    def check_workload(self, workload):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        lines, result = self.check(workload, 0, e2e)
        for name in e2e:
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        self.assertTrue(any(l.startswith("metric failed_frac") for l in lines))
        lines, result = self.check(workload, 1, layers)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        shares = [v for k, v in values.items() if k.endswith(".share")]
        # Layer shares and other.share partition the traced wall-clock.
        self.assertAlmostEqual(sum(shares), 1.0, places=6)
        return values

    def test_paper_read(self):
        values = self.check_workload("paper_read")
        self.assertGreater(values["flowserver.decide.share"], 0)
        self.assertGreater(values["sdn.start_flow.share"], 0)
        self.assertEqual(values["fs.ns.share"], 0)

    def test_fattree_storm(self):
        values = self.check_workload("fattree_storm")
        self.assertGreater(values["flowserver.view.shard_reloads_per_decision"], 0)

    def test_write_mix(self):
        values = self.check_workload("write_mix")
        for layer in ["fs.ns", "fs.ds", "fs.client", "flowserver.rpc",
                      "policy.write_placement"]:
            self.assertGreater(values[layer + ".share"], 0, layer)
        self.assertGreater(values["fs.ds.chain_appends_per_write"], 0)
        self.assertEqual(values["fs.ds.relay_failed"], 0)


if __name__ == "__main__":
    unittest.main()
