#!/usr/bin/env python3
"""Self-tests for the benchmark, at tiny input sizes.

Run from the repository root:

    python3 perfbench/selftest.py

They check that every workload prints every metric named in
BENCHMARK.json with its unit and sample count, that a corrupted
placement is caught by the reference check, that the deterministic
metrics repeat exactly (on the fleet, across domain counts too), and
that the benchmark refuses to run without the library beside it.
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
WORKLOADS = ["fleet-poisson", "power-updates", "scale-minpower"]
DETERMINISTIC = ["reconfig_cost", "power", "heuristic_ratio", "serveable_share"]
COUNTS = [
    "trace.events", "tree.nodes_per_decision", "engine.changed_nodes",
    "engine.dirty_nodes", "engine.reconfigurations", "engine.solve_useful_ratio",
    "dp_withpre.merge_products", "dp_withpre.cells_created",
    "dp_withpre.capacity_rejected", "dp_withpre.peak_table_size",
    "dp_withpre.memo_hit_ratio", "dp_power.merge_products",
    "dp_power.cells_created", "dp_power.dominance_pruned",
    "dp_power.memo_hit_ratio", "gr_power.greedy_passes",
]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra, seed=3, trace=0, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, *extra, **kw):
    done = run(workload, *extra, **kw)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def values(res):
    return {k: m["value"] for k, m in res["metrics"].items()}


class Metrics(unittest.TestCase):
    def check(self, trace, spec):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, res = result(workload, trace=trace)
                self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in spec))
                for m in spec:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    printed = [l for l in lines if l.split()[:1] == [m["name"]]]
                    self.assertEqual(len(printed), 1, m["name"])
                    self.assertIn(m["unit"], printed[0].split())
                    self.assertRegex(printed[0], r" n=\d+$")

    def test_end_to_end_metrics_printed(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics_printed(self):
        self.check(1, SPEC["per_layer"])

    def test_end_to_end_metrics_never_zero(self):
        for workload in WORKLOADS:
            _, res = result(workload)
            for name, v in values(res).items():
                self.assertNotEqual(v, 0, workload + " " + name)


class Reference(unittest.TestCase):
    def test_corrupted_placement_raises_error_share(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, res = result(workload, "--corrupt", trace=trace)
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["failed"], 1)
                    if trace == 0:
                        self.assertLess(res["metrics"]["correct_share"]["value"], 1)


class Determinism(unittest.TestCase):
    def test_deterministic_metrics_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = values(result(workload)[1])
                b = values(result(workload)[1])
                for name in DETERMINISTIC:
                    self.assertEqual(a[name], b[name], name)

    def test_fleet_is_identical_across_domain_counts(self):
        one = values(result("fleet-poisson", "--domains", "1")[1])
        two = values(result("fleet-poisson", "--domains", "2")[1])
        for name in DETERMINISTIC:
            self.assertEqual(one[name], two[name], name)
        one = values(result("fleet-poisson", "--domains", "1", trace=1)[1])
        two = values(result("fleet-poisson", "--domains", "2", trace=1)[1])
        for name in COUNTS:
            self.assertEqual(one[name], two[name], name)

    def test_seed_changes_inputs(self):
        for workload in WORKLOADS:
            a = values(result(workload, seed=3)[1])
            b = values(result(workload, seed=4)[1])
            self.assertNotEqual(a["power"], b["power"], workload)


class Isolation(unittest.TestCase):
    def test_refuses_without_the_library(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                            ignore=shutil.ignore_patterns("__pycache__"))
            script = os.path.join(bare, os.path.basename(HERE), "run.py")
            done = run("power-updates", cwd=bare, script=script)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
