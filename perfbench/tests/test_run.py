"""Tests of run.py: BENCHMARK.json against the metric catalogue, and compare.

Run with: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(HERE)
ROOT = os.path.dirname(PACKAGE)
sys.path.insert(0, PACKAGE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def catalogue():
    """(end-to-end names, per-layer names) from metrics.hpp, in order."""
    with open(os.path.join(PACKAGE, "metrics.hpp")) as handle:
        text = handle.read()
    end = text.index("kPerLayer")
    pair = re.compile(r'\{"([^"]+)", "([^"]+)"\}')
    return ([m.group(1) for m in pair.finditer(text[:end])],
            [m.group(1) for m in pair.finditer(text[end:])])


def record(workload, seed, values, settings=None):
    metrics = {name: {"value": value, "unit": "1/s"}
               for name, value in values.items()}
    base = {"workload": workload, "trace": False, "seconds": 20, "jobs": 4}
    base.update(settings or {})
    return {"seed": seed, "settings": base, "metrics": metrics}


BENCHMARK = {"end_to_end": [
    {"name": "scenarios_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.1},
]}


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_are_well_formed_and_unique(self):
        benchmark = load_benchmark()
        names = [m["name"] for m in benchmark["end_to_end"]]
        names += [m["name"] for m in benchmark["per_layer"]]
        names += [w["name"] for w in benchmark["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
        metric_names = names[:len(names) - len(benchmark["workloads"])]
        self.assertEqual(len(metric_names), len(set(metric_names)))

    def test_benchmark_lists_exactly_the_program_catalogue(self):
        benchmark = load_benchmark()
        end_to_end, per_layer = catalogue()
        self.assertEqual([m["name"] for m in benchmark["end_to_end"]],
                         end_to_end)
        self.assertEqual([m["name"] for m in benchmark["per_layer"]],
                         per_layer)
        self.assertEqual([w["name"] for w in benchmark["workloads"]],
                         list(run.WORKLOADS))

    def test_bounds_and_setup_metric(self):
        benchmark = load_benchmark()
        for metric in benchmark["end_to_end"]:
            self.assertIn(metric["better"], ("higher", "lower"))
            self.assertGreater(metric["bound"], 0.0)
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in benchmark["end_to_end"]))


class Compare(unittest.TestCase):
    def runs(self, scale, latency=1.0, jitter=0.01):
        return [record("sweep_mixed", seed,
                       {"scenarios_per_s": 100.0 * scale * (1 + jitter * i),
                        "latency_p50_ms": latency * (1 + jitter * i)})
                for i, seed in enumerate((1, 2, 3, 4, 5))]

    def test_out_of_bound_delta_is_flagged(self):
        lines, regressions, refusal = run.compare(
            self.runs(1.0), self.runs(0.8), BENCHMARK)
        self.assertIsNone(refusal)
        self.assertEqual(regressions, 1)
        flagged = [line for line in lines if "OUTSIDE BOUND" in line]
        self.assertEqual(len(flagged), 1)
        self.assertIn("scenarios_per_s", flagged[0])

    def test_in_bound_delta_passes(self):
        lines, regressions, refusal = run.compare(
            self.runs(1.0), self.runs(0.95, latency=1.05), BENCHMARK)
        self.assertIsNone(refusal)
        self.assertEqual(regressions, 0)
        self.assertEqual(
            len([line for line in lines if "within bound" in line]), 2)

    def test_wide_spread_is_unresolved(self):
        lines, regressions, _ = run.compare(
            self.runs(1.0, jitter=0.2), self.runs(0.85, jitter=0.2),
            BENCHMARK)
        self.assertEqual(regressions, 0)
        self.assertTrue(any("unresolved" in line for line in lines))

    def test_differing_settings_are_refused(self):
        new = self.runs(1.0)
        new[0]["settings"]["jobs"] = 2
        _, _, refusal = run.compare(self.runs(1.0), new, BENCHMARK)
        self.assertIn("settings differ", refusal)

    def test_differing_seeds_are_refused(self):
        new = self.runs(1.0)
        new[0]["seed"] = 99
        _, _, refusal = run.compare(self.runs(1.0), new, BENCHMARK)
        self.assertIn("seeds differ", refusal)

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(run.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        self.assertGreater(run.spread([1.0, 2.0, 3.0, 4.0]), 0.5)


if __name__ == "__main__":
    unittest.main()
