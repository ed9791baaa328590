"""Tests of the benchmark's own helpers.

Run from the root of a checkout:

    python3 perfbench/tests/test_helpers.py
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, outermost, roots, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "a", 1.0, 3.0),
            Span(2, 0, "b", 5.0, 9.0),
            Span(3, 2, "c", 6.0, 7.0),
        ]
        own = self_times(spans)
        self.assertEqual(own[0], 4.0)
        self.assertEqual(own[1], 2.0)
        self.assertEqual(own[2], 3.0)
        self.assertEqual(own[3], 1.0)

    def test_overlapping_and_overhanging_children_count_their_union(self):
        spans = [
            Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "a", 2.0, 6.0),
            Span(2, 0, "b", 4.0, 8.0),
            Span(3, 0, "c", 9.0, 12.0),
        ]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_tracer_nests_wrapped_calls_and_restores_them(self):
        import types

        ticks = iter(range(100))
        module = types.ModuleType("fakepkg")
        module.__name__ = "fakepkg"
        sys.modules["fakepkg"] = module
        try:
            def inner(x):
                return x + 1

            def outer(x):
                return module.inner(x) * 2

            module.inner, module.outer = inner, outer
            tracer = Tracer(clock=lambda: float(next(ticks)))
            tracer.wrap(module, "inner", "m.inner")
            tracer.wrap(module, "outer", "m.outer")
            self.assertEqual(module.outer(1), 4)
            tracer.uninstall()
            self.assertIs(module.inner, inner)
            self.assertIs(module.outer, outer)
        finally:
            del sys.modules["fakepkg"]
        outer_span, inner_span = tracer.spans
        self.assertEqual((outer_span.name, outer_span.parent), ("m.outer", None))
        self.assertEqual((inner_span.name, inner_span.parent), ("m.inner", outer_span.id))
        own = self_times(tracer.spans)
        self.assertEqual(own[outer_span.id], outer_span.duration - inner_span.duration)

    def test_outermost_skips_recursive_calls(self):
        spans = [
            Span(0, None, "f", 0.0, 4.0),
            Span(1, 0, "g", 1.0, 3.0),
            Span(2, 1, "f", 1.5, 2.5),
            Span(3, None, "f", 5.0, 6.0),
        ]
        self.assertEqual([s.id for s in outermost(spans, "f")], [0, 3])


class LayerMetricsTest(unittest.TestCase):
    def test_checker_spans_count_only_as_verify_witness_time(self):
        search = Span(1, 0, "concord.check_concordance", 0.0, 4.0,
                      {"nodes": 7, "reactions": frozenset({"A->B"})})
        spans = [
            Span(0, None, "op", 0.0, 5.0, {"op": "x"}),
            search,
            Span(2, 1, "linalg.rref", 1.0, 2.0),
            Span(3, None, "check", 6.0, 9.0, {"op": "x"}),
            Span(4, 3, "concord.verify_witness", 6.0, 8.5),
            Span(5, 4, "linalg.rref", 7.0, 8.0),
        ]
        self.assertEqual(roots(spans)[5].id, 3)
        metrics = layers.layer_metrics(spans)
        self.assertEqual(metrics["linalg.rref.calls"], 1)
        self.assertEqual(metrics["linalg.rref.self_s"], 1.0)
        self.assertEqual(metrics["concord.search.nodes"], 7)
        self.assertEqual(metrics["concord.search.self_s"], 3.0)
        self.assertEqual(metrics["concord.verify_witness_s"], 2.5)
        self.assertEqual(layers.op_counts(spans)["x"]["checks"], 1)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(summary.tail(values), ("p90", 90.0, 100))

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        values = [1.0] * 80 + [2.0] * 9 + [3.0] * 11
        label, value, _ = summary.tail(values)
        # p89 lands on the last 2.0, with the eleven 3.0s beyond it
        self.assertEqual((label, value), ("p89", 2.0))

    def test_small_samples_fall_back_to_the_maximum(self):
        self.assertEqual(summary.tail([3.0, 1.0, 2.0]), ("max", 3.0, 3))

    def test_quartile_spread_is_relative_to_the_median(self):
        self.assertAlmostEqual(summary.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


class SeededDrawTest(unittest.TestCase):
    def setUp(self):
        from crnkit import fixtures

        self.fixtures = workloads.load_fixtures(fixtures.NAMES)

    def draws(self, seed):
        return [
            (name, net.reactions)
            for name, net in workloads.random_subsets(self.fixtures, random.Random(seed))
        ]

    def test_same_seed_gives_the_same_draws(self):
        self.assertEqual(self.draws(3), self.draws(3))

    def test_other_seeds_give_other_draws(self):
        self.assertNotEqual(self.draws(3), self.draws(4))

    def test_each_draw_drops_one_to_three_reactions_of_its_fixture(self):
        for seed in range(20):
            subsets = workloads.random_subsets(self.fixtures, random.Random(seed))
            self.assertEqual(len(subsets), len(self.fixtures))
            for (name, net), parent in zip(subsets, self.fixtures.values()):
                dropped = len(parent.reactions) - len(net.reactions)
                self.assertIn(dropped, (1, 2, 3), name)
                self.assertTrue(set(net.reactions) <= set(parent.reactions), name)

    def test_a_workload_is_the_same_for_the_same_seed(self):
        def names(seed):
            workload = workloads.setup_concordance_m3cr(ROOT, seed)
            return [op.name for op in workload.ops + workload.sweep_ops]

        self.assertEqual(names(5), names(5))
        self.assertNotEqual(names(5), names(6))


if __name__ == "__main__":
    unittest.main()
