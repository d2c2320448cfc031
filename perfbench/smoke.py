"""Smoke test of the benchmark: schema of BENCHMARK.json, every workload.

Run from the repository root::

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` keeps its schema, then runs every workload
at a reduced graph scale for one query, untraced and traced, and checks
that each run is correct and reports exactly the metrics the file lists.
"""

from __future__ import annotations

import json
import math
import re
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
#: Graph scale multiplier for the smoke runs (smallest surrogate sizes).
SMOKE_SCALE = 0.25


def load_spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class SchemaTest(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = load_spec()

    def test_keys(self) -> None:
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_command_and_paths(self) -> None:
        command, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(command) <= 32)
        self.assertTrue(all(len(part) <= 200 for part in command))
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
            self.assertTrue((run.ROOT / path).is_dir())
        for part in command[1:]:
            if "/" in part:
                self.assertTrue(any(part.startswith(path + "/") for path in paths))

    def test_names_units_and_counts(self) -> None:
        spec = self.spec
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertTrue(0 < len(workload["why"]) <= 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric(self) -> None:
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"])
        )

    def test_workloads_exist(self) -> None:
        import workloads

        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS)
        )


class WorkloadTest(unittest.TestCase):
    """Every workload at reduced scale: correct, and the listed metrics."""

    def check(self, name: str, trace: bool) -> None:
        spec = load_spec()
        tally, tracer = run.run(name, seed=1, seconds=0.01, trace=trace,
                                scale_factor=SMOKE_SCALE)
        self.assertGreaterEqual(tally.attempted, 1)
        self.assertEqual(tally.failed, 0, tally.failures)
        if trace:
            metrics = run.per_layer_metrics(tally, tracer)
            listed = spec["per_layer"]
        else:
            metrics = run.end_to_end_metrics(tally)
            listed = spec["end_to_end"]
        self.assertEqual(list(metrics), [m["name"] for m in listed])
        for metric in listed:
            value, unit = metrics[metric["name"]]
            self.assertEqual(unit, metric["unit"])
            self.assertTrue(math.isfinite(value), metric["name"])
            if not trace:
                self.assertGreater(value, 0.0, metric["name"])

    def test_rank_road(self) -> None:
        self.check("rank-road", trace=False)
        self.check("rank-road", trace=True)

    def test_rank_social(self) -> None:
        self.check("rank-social", trace=False)
        self.check("rank-social", trace=True)

    def test_compare_social(self) -> None:
        self.check("compare-social", trace=False)
        self.check("compare-social", trace=True)

    def test_edit_rerank(self) -> None:
        self.check("edit-rerank", trace=False)
        self.check("edit-rerank", trace=True)


if __name__ == "__main__":
    run.import_program()
    unittest.main()
