#!/usr/bin/env python3
"""Tests of the benchmark's metric arithmetic (perfbench/metrics.py).

    python3 perfbench/test_metrics.py
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_with_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 90), (90, 10))
        self.assertEqual(metrics.percentile(values, 50), (50, 50))

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(99)), 90)  # 9 beyond p90
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(19)), 50)  # 9 beyond p50

    def test_order_independent(self):
        values = [5.0, 1.0, 3.0] * 40
        self.assertEqual(metrics.percentile(values, 90),
                         metrics.percentile(sorted(values), 90))

    def test_median_even_and_odd(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 2, 3]), 2.5)
        self.assertIsInstance(metrics.median([7, 7]), int)


class WilsonLowerBound(unittest.TestCase):
    def test_matches_library_intervals(self):
        # stats::yield_confidence at 300 samples (bench/table6_miller):
        # 300/300 -> 98.74 %, 299/300 -> 98.14 %.
        self.assertAlmostEqual(metrics.wilson_lower(300, 300), 0.98736, 5)
        self.assertAlmostEqual(metrics.wilson_lower(299, 300), 0.98140, 4)

    def test_textbook_value(self):
        # 50/100 at z = 1.96: 0.4038 (Wilson 1927 score interval).
        self.assertAlmostEqual(metrics.wilson_lower(50, 100), 0.40383, 4)

    def test_edges(self):
        self.assertEqual(metrics.wilson_lower(0, 10), 0.0)
        self.assertLess(metrics.wilson_lower(10, 10), 1.0)
        with self.assertRaises(ValueError):
            metrics.wilson_lower(0, 0)


class SpanSelfTime(unittest.TestCase):
    def test_union_merges_overlaps_across_threads(self):
        # Two workers overlap on [5, 8); the union is [0, 10) + [12, 15).
        self.assertEqual(metrics.covered_ns([(0, 8), (5, 10), (12, 15)]), 13)

    def test_clip_to_parent(self):
        self.assertEqual(
            metrics.covered_ns([(0, 8), (12, 20)], clip=(4, 16)), 8)

    def test_self_time_subtracts_covered_part_only(self):
        parent = (100, 200)
        children = [(90, 110), (150, 160), (155, 170), (195, 260)]
        # covered inside parent: [100,110) + [150,170) + [195,200) = 35
        self.assertEqual(metrics.self_ns(parent, children), 65)

    def test_no_children(self):
        self.assertEqual(metrics.self_ns((0, 50), []), 50)


def run_report(obs_enabled=True):
    """The part of a mayo.run_report/1 document the metrics read."""
    phases = {"feasibility": 1e-6, "linearization": 0.0,
              "worst_case_search": 4e-6, "coordinate_search": 0.0,
              "line_search": 0.0, "verification": 3e-6,
              "is_verification": 1e-6}
    counters = {
        "probe_cache.hits": 30, "probe_cache.misses": 70,
        "design_context.hits": 9, "design_context.misses": 1,
        "design_context.evictions": 0,
        "dc.solves": 200, "dc.newton_iterations": 1000,
        "dc.nonconverged": 2,
        "ac.stamps": 100, "ac.probes": 400,
        "tran.solves": 64, "tran.steps": 64 * 240,
        "tran.newton_iterations": 64 * 480, "tran.nonconverged": 0,
        "mc.is.ess_fallbacks": 1,
    }
    if not obs_enabled:  # the schema keeps its keys; the values read 0
        phases = dict.fromkeys(phases, 0.0)
        counters = dict.fromkeys(counters, 0)
    return {"schema": "mayo.run_report/1", "obs_enabled": obs_enabled,
            "phases": {name: {"seconds": seconds, "calls": 1}
                       for name, seconds in phases.items()},
            "counters": counters}


def traced_rep(obs_enabled=True):
    spans = [  # [buffer, start, end, rows]
        [0, 1000, 3000, 1],
        [1, 2000, 4000, 32],
        [2, 2500, 2600, 0],  # constraint evaluation
        [0, 9000, 9500, 31],
    ]
    return {"spans": spans, "section_span": [0, 10000],
            "optimize_span": [500, 9800], "report": run_report(obs_enabled)}


class LayerRatios(unittest.TestCase):
    def test_ratios_and_their_bases(self):
        m = metrics.layer_metrics(traced_rep())
        self.assertEqual(m["core.probe_cache.lookups"], 100)
        self.assertAlmostEqual(m["core.probe_cache.hit_ratio"], 0.3)
        self.assertEqual(m["circuits.design_context.lookups"], 10)
        self.assertAlmostEqual(m["circuits.design_context.hit_ratio"], 0.9)
        self.assertEqual(m["circuits.calls"], 3)  # constraint call excluded
        self.assertEqual(m["circuits.rows"], 64)
        self.assertAlmostEqual(m["circuits.batch_rows_mean"], 64 / 3)
        # (2000 + 2000 + 500) ns over 64 rows
        self.assertAlmostEqual(m["circuits.us_per_row"], 4.5 / 64)
        self.assertAlmostEqual(m["sim.dc.newton_per_solve"], 5.0)
        self.assertAlmostEqual(m["sim.ac.probes_per_stamp"], 4.0)
        self.assertAlmostEqual(m["sim.tran.solves_per_eval"], 1.0)
        self.assertAlmostEqual(m["sim.tran.steps_per_solve"], 240.0)
        self.assertAlmostEqual(m["sim.tran.newton_per_step"], 2.0)
        self.assertAlmostEqual(m["sim.fail_frac"], 2 / 264)
        self.assertEqual(m["linalg.factorizations"], 1000 + 64 * 480 + 400)
        self.assertEqual(m["core.is.ess_fallbacks"], 1)

    def test_model_and_self_time(self):
        m = metrics.layer_metrics(traced_rep())
        self.assertAlmostEqual(m["circuits.model_s"], 4600e-9)
        # optimize [500, 9800) minus covered [1000, 4000) + [9000, 9500)
        self.assertAlmostEqual(m["core.self_s"], 5800e-9)
        # phases 9 us + no model time outside the optimize span, over 10 us
        self.assertAlmostEqual(m["trace.accounted_frac"], 0.9)

    def test_sweep_accounts_model_time_without_optimize_span(self):
        rep = traced_rep()
        rep["optimize_span"] = None
        for phase in rep["report"]["phases"].values():
            phase["seconds"] = 0.0
        m = metrics.layer_metrics(rep)
        self.assertEqual(m["core.self_s"], 0.0)
        self.assertAlmostEqual(m["trace.accounted_frac"], 3500 / 10000)

    def test_empty_base_gives_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)

    def test_obs_compiled_out_leaves_counters_missing(self):
        m = metrics.layer_metrics(traced_rep(obs_enabled=False))
        self.assertIn("circuits.model_s", m)
        for name in ("sim.dc.solves", "sim.fail_frac", "core.verification_s",
                     "core.probe_cache.hit_ratio", "linalg.factorizations",
                     "trace.accounted_frac"):
            self.assertNotIn(name, m)
        self.assertIsNone(metrics.solve_tally(traced_rep(obs_enabled=False)))


class RunLevel(unittest.TestCase):
    def test_end_to_end_sweep_uses_wilson_and_moment_beta(self):
        rep = {"traced": False, "wall_s": 2.0, "cpu_s": 1.9,
               "latencies_ms": [float(i) for i in range(1, 101)],
               "evals": {"optimization": 512, "verification": 0,
                         "constraint": 0},
               "samples": 512, "passing": 500,
               "margin_mean": [3.0, 1.0], "margin_std": [1.0, 0.5]}
        run = {"reps": [rep, dict(rep, wall_s=4.0)], "setup_s": [1, 2, 3],
               "peak_rss_mb": 7.0}
        m = metrics.end_to_end(run)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["evals_total"], 512)
        self.assertEqual(m["evals_per_s"], (256 + 128) / 2)
        self.assertEqual(m["setup_s"], 2)
        self.assertAlmostEqual(m["yield_lower"], metrics.wilson_lower(500, 512))
        self.assertEqual(m["beta_min"], 2.0)
        self.assertEqual(m["block_ms_p90"], 90.0)

    def test_overhead_is_traced_over_untraced_minus_one(self):
        rep = traced_rep()
        run = {"reps": [dict(rep, traced=False, wall_s=2.0),
                        dict(rep, traced=True, wall_s=2.2)],
               "lu_factor_us": 3.0}
        m = metrics.per_layer(run)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(m["linalg.lu_factor_us"], 3.0)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        # statistics.quantiles (exclusive): q1 = 1.5, q3 = 4.5
        self.assertAlmostEqual(metrics.spread(values), 1.0)
        self.assertTrue(math.isclose(metrics.spread([2.0] * 4), 0.0))


def fc_rep(is_lower=0.998, fingerprint="a"):
    return {"error": None, "feasible": True, "is_run": True,
            "is_yield": 0.999, "is_lower": is_lower,
            "fingerprint": fingerprint, "report": run_report()}


class OutputChecks(unittest.TestCase):
    # run_report() tallies 264 DC + transient solves, 2 of them failed.
    def test_passing_run_counts_nonconverged_solves(self):
        self.assertEqual(run.check_run("fc_optimize", {"reps": [fc_rep()]}),
                         (True, 264, 2))

    def test_is_lower_bound_below_limit_fails_every_solve(self):
        reps = [fc_rep(), fc_rep(is_lower=0.75)]
        self.assertEqual(run.check_run("fc_optimize", {"reps": reps}),
                         (False, 528, 2 + 264))

    def test_disagreeing_repetitions_fail_every_solve(self):
        reps = [fc_rep(), fc_rep(fingerprint="b")]
        self.assertEqual(run.check_run("fc_optimize", {"reps": reps}),
                         (False, 528, 528))


if __name__ == "__main__":
    unittest.main()
