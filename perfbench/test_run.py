"""Unit tests of run.py's aggregation, steadiness comparison and exit
codes. Run with `python3 perfbench/run.py --self-test`."""

import json
import unittest
from pathlib import Path
from unittest import mock

import run


def rep(i, sub, traced=False, wall=2.0, setup=0.1, rss=100.0, checks=()):
    values = {k: 1.0 for k in run.PER_LAYER if k != "obs.trace_overhead"}
    values.update(setup_s=setup, wall_norm_s=wall, wall_s=wall * 0.8,
                  reference_ms=1.6, peak_rss_mb=rss)
    return {"rep": i, "sub_run": sub, "traced": traced,
            "sim_digest": "00ff", "failed_checks": list(checks),
            "values": values}


def summary(started=100, completed=100):
    return {"summary": {"sub_runs": 2, "flows_started": started,
                        "flows_completed": completed,
                        "short_p99_slowdown": 4.5, "short_n": 80,
                        "long_mean_slowdown": 2.5, "long_n": 5,
                        "sim_digest": "abcd"}}


class Aggregation(unittest.TestCase):
    def test_end_to_end_aggregation(self):
        lines = [rep(0, 0, wall=3.0, setup=0.4, rss=90),
                 rep(1, 1, wall=1.0, setup=0.1, rss=120),
                 rep(2, 0, wall=2.0, setup=0.2, rss=110), summary(100, 99)]
        result, info = run.evaluate(0, lines, 0)
        m = result["metrics"]
        self.assertTrue(result["correct"])
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["wall_norm_s"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 120)
        self.assertAlmostEqual(m["flows_completed_frac"]["value"], 0.99)
        self.assertEqual(m["short_p99_slowdown"]["value"], 4.5)
        self.assertEqual((result["attempted"], result["failed"]), (100, 1))
        self.assertEqual(info["sim_digest"], "abcd")
        self.assertEqual(m["wall_norm_s"]["unit"], "s")
        self.assertAlmostEqual(info["wall_s_median"], 1.6)
        self.assertEqual(info["reference_ms_median"], 1.6)

    def test_per_layer_uses_traced_reps_and_pairs_overhead(self):
        lines = [rep(0, 0, wall=2.0), rep(1, 0, traced=True, wall=2.2),
                 rep(2, 1, wall=4.0), rep(3, 1, traced=True, wall=4.8),
                 summary()]
        lines[1]["values"]["engine.events"] = 10
        lines[3]["values"]["engine.events"] = 30
        result, _ = run.evaluate(0, lines, 1)
        m = result["metrics"]
        self.assertTrue(result["correct"])
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["engine.events"]["value"], 20)  # traced only
        # Pair ratios 1.1 and 1.2: median 1.15, overhead 0.15.
        self.assertAlmostEqual(m["obs.trace_overhead"]["value"], 0.15)

    def test_failed_check_is_incorrect(self):
        lines = [rep(0, 0), rep(1, 1, checks=["restore failed"]), summary()]
        result, info = run.evaluate(1, lines, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        self.assertEqual(info["failed_checks"], ["restore failed"])

    def test_missing_summary_or_nonzero_exit_is_incorrect(self):
        self.assertFalse(run.evaluate(0, [rep(0, 0)], 0)[0]["correct"])
        self.assertFalse(run.evaluate(
            1, [rep(0, 0), summary()], 0)[0]["correct"])
        self.assertGreaterEqual(run.evaluate(1, [], 0)[0]["attempted"], 1)


class ExitCodes(unittest.TestCase):
    def run_main(self, lines, code):
        with mock.patch.object(run, "build", return_value=Path(".")), \
             mock.patch.object(run, "run_runner", return_value=(code, lines)), \
             mock.patch("builtins.print") as printed:
            rc = run.main(["--workload", "t1_incast", "--seed", "3"])
        last = json.loads(printed.call_args_list[-1].args[0])
        return rc, last

    def test_failed_check_exits_nonzero_with_result(self):
        rc, last = self.run_main(
            [rep(0, 0, checks=["sum of shard_events != events_processed"]),
             summary()], 1)
        self.assertEqual(rc, 1)
        self.assertFalse(last["correct"])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})

    def test_clean_run_exits_zero(self):
        rc, last = self.run_main([rep(0, 0), rep(1, 1), summary()], 0)
        self.assertEqual(rc, 0)
        self.assertTrue(last["correct"])

    def test_build_failure_exits_2_without_result(self):
        with mock.patch.object(run, "build",
                               side_effect=RuntimeError("no src")), \
             mock.patch("builtins.print") as printed:
            rc = run.main(["--workload", "t1_incast"])
        self.assertEqual(rc, 2)
        printed.assert_not_called()


class Steadiness(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = run.quartiles(xs)
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(run.spread(xs), (q3 - q1) / 3.0)

    def test_sets_agree_within_bound(self):
        a = {k: [10.0, 10.01, 9.99, 10.0] for k in run.END_TO_END}
        b = {k: [10.005, 10.01, 9.995, 10.0] for k in run.END_TO_END}
        rows, ok = run.compare_sets(a, b)
        self.assertTrue(ok)
        self.assertTrue(all(r["agree"] for r in rows.values()))

    def test_drift_beyond_bound_disagrees(self):
        a = {k: [10.0, 10.0, 10.0, 10.0] for k in run.END_TO_END}
        b = dict(a, wall_norm_s=[13.0, 13.0, 13.0, 13.0])
        rows, ok = run.compare_sets(a, b)
        self.assertFalse(ok)
        self.assertFalse(rows["wall_norm_s"]["agree"])
        self.assertAlmostEqual(rows["wall_norm_s"]["drift"], 0.3)

    def test_wide_spread_disagrees_except_setup(self):
        wide = [1.0, 5.0, 10.0, 20.0]
        a = {k: [10.0] * 4 for k in run.END_TO_END}
        rows, ok = run.compare_sets(dict(a, setup_s=wide),
                                    dict(a, setup_s=wide))
        self.assertTrue(rows["setup_s"]["agree"])
        rows, ok = run.compare_sets(dict(a, wall_norm_s=wide),
                                    dict(a, wall_norm_s=wide))
        self.assertFalse(rows["wall_norm_s"]["agree"])


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_matches_tables(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in spec["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
