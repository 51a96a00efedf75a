"""Smoke tests for the benchmark: every workload at its smoke size, traced
and untraced, in a few seconds.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import oracle
import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONTRACT = json.load(handle)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        result = run.run(workload, seed=7, seconds=0.3, trace=trace, size="smoke")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = CONTRACT["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
        json.dumps(result)
        return result["metrics"]

    def test_workloads_match_the_contract(self):
        self.assertEqual(sorted(w["name"] for w in CONTRACT["workloads"]), sorted(run.WORKLOADS))

    def test_verify_ladder(self):
        metrics = self.check_run("verify-ladder", 0)
        self.assertGreater(metrics["run_s"]["value"], 0)
        layers = self.check_run("verify-ladder", 1)
        self.assertGreater(layers["bench.bench_one_s"]["value"], 0)
        self.assertGreater(layers["checks.pairs_routed"]["value"], 0)

    def test_build_check(self):
        self.check_run("build-check", 0)
        layers = self.check_run("build-check", 1)
        for name in ("cli.construct_s", "cli.check_s", "construct.path_categories_s", "categories.json_bytes"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_route_queries(self):
        metrics = self.check_run("route-queries", 0)
        self.assertGreaterEqual(metrics["route_ms_p99"]["value"], metrics["route_ms_p50"]["value"])
        layers = self.check_run("route-queries", 1)
        self.assertGreater(layers["routing.neighbors_scanned"]["value"], 0)

    def test_tracer_leaves_the_package_as_it_found_it(self):
        catroute = run.load_package()
        before = catroute.routing.greedy_route
        run.run("route-queries", seed=3, seconds=0.1, trace=1, size="smoke")
        self.assertIs(catroute.routing.greedy_route, before)
        self.assertIs(catroute.construct.choose_root, catroute.graph.choose_root)


class Refusal(unittest.TestCase):
    def test_exits_non_zero_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable] + CONTRACT["command"][1:]
                + ["--workload", "route-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class ClockScale(unittest.TestCase):
    def test_scale_is_the_reference_over_the_mean_of_the_bracket(self):
        clock = run.Clock()
        clock.start()
        factor = clock.scale()
        before, after = clock.loops
        self.assertAlmostEqual(factor, run.CALIBRATION_REF_S * 2 / (before + after))


class JudgeTraces(unittest.TestCase):
    """The judge holds a trace to the oracle whatever the program returns."""

    def setUp(self):
        catroute = run.load_package()
        path = catroute.graph.Graph(4, [(0, 1), (1, 2), (2, 3)])
        self.view = run.OracleView(path, [[0], [0, 1], [0, 1, 2], [1, 2, 3], [2, 3], [3]])
        self.trace = catroute.routing.RouteTrace

    def problems(self, path, dists, delivered=True, whole_walk=True):
        judge = run.Judge()
        judge.trace(self.view, self.trace(path[0], 3, path, dists, delivered), path[0], 3, "t", whole_walk)
        return judge.problems

    def test_the_oracle_walk_passes(self):
        self.assertEqual(self.problems((0, 1, 2, 3), (3, 2, 1, 0)), [])

    def test_wrong_traces_are_caught(self):
        self.assertTrue(self.problems((0, 2, 3), (3, 1, 0)))  # not an edge
        self.assertTrue(self.problems((0, 1, 2, 3), (3, 2, 2, 0)))  # distances
        self.assertTrue(self.problems((0, 1), (3, 2), delivered=False))


class Oracle(unittest.TestCase):
    def test_cushion_matches_the_advertised_bound(self):
        self.assertEqual(oracle.cushion(2000, 2), 3136)
        self.assertEqual(oracle.cushion(4000, 2), 3600)

    def test_greedy_walk_on_path_intervals(self):
        # Path 0-1-2-3 with prefix and suffix sets: routes follow the path.
        adj = oracle.adjacency(4, [(0, 1), (1, 2), (2, 3)])
        cats = [[0], [0, 1], [0, 1, 2], [1, 2, 3], [2, 3], [3]]
        self.assertIsNone(oracle.canonical_problem(4, cats))
        counts, masks = oracle.memberships(4, cats)
        self.assertEqual(counts, [3, 3, 3, 3])
        self.assertEqual(oracle.greedy_walk(adj, masks, 0, 3), ([0, 1, 2, 3], [3, 2, 1, 0]))
        self.assertTrue(oracle.pair_shattered(adj, masks, 3, 0))

    def test_greedy_walk_reports_stuck(self):
        adj = oracle.adjacency(3, [(0, 1), (1, 2)])
        counts, masks = oracle.memberships(3, [[0, 1, 2]])
        self.assertEqual(oracle.greedy_walk(adj, masks, 0, 2), ([0], [0]))
        self.assertFalse(oracle.pair_shattered(adj, masks, 0, 2))

    def test_canonical_problems_are_named(self):
        self.assertIn("empty", oracle.canonical_problem(3, [[]]))
        self.assertIn("duplicate", oracle.canonical_problem(3, [[0], [0]]))
        self.assertIn("ascending", oracle.canonical_problem(3, [[1, 0]]))


if __name__ == "__main__":
    unittest.main()
