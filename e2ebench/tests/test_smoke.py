#!/usr/bin/env python3
"""Smoke-size self-test of the end-to-end benchmark.

    python3 e2ebench/tests/test_smoke.py

Builds e2ebench and runs every workload at self-test size (a few jobs, a
2048-device population): once traced and twice untraced on the same seed.
Checks that each run emits exactly the metrics BENCHMARK.json declares,
each finite, that the canonical pass matches its pinned digest, and that
the output digests repeat between the two untraced runs.
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (e2ebench/run.py)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

SEED = 3


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def check_workload(self, workload):
        _, first, result = run.run(workload, SEED, 1, trace=False, smoke=True)
        self.check_metrics(result, BENCHMARK["end_to_end"])
        _, second, result = run.run(workload, SEED, 1, trace=False, smoke=True)
        self.check_metrics(result, BENCHMARK["end_to_end"])
        for key in ("pin_digest", "digest"):
            self.assertEqual(second[key], first[key], f"{workload}: {key} did not repeat")
        _, traced, result = run.run(workload, SEED, 1, trace=True, smoke=True)
        self.check_metrics(result, BENCHMARK["per_layer"])
        self.assertEqual(traced["digest"], first["digest"])

    def test_paper_attacks(self):
        self.check_workload("paper_attacks")

    def test_defense_matrix(self):
        self.check_workload("defense_matrix")

    def test_fleet_population(self):
        self.check_workload("fleet_population")


if __name__ == "__main__":
    unittest.main()
