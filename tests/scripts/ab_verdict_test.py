"""Negative controls for scripts/ab.py's verdicts, fed a recorded pair table
(data/ab_pairs.json) whose workloads hold a metric 40% past its bound, one
exactly at its bound, a 9-of-10-pairs gain and a spread wider than the
bound; variants add a failed operation or drop a side or a metric."""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "scripts"))
import ab  # noqa: E402


def load():
    with open(os.path.join(HERE, "data", "ab_pairs.json")) as f:
        d = json.load(f)
    return d["spec"], d["table"]


def verdicts(spec, table):
    rows, _, problems = ab.judge(spec, table)
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}, problems


class AbVerdictTest(unittest.TestCase):
    def setUp(self):
        self.spec, self.table = load()
        self.v, self.problems = verdicts(self.spec, self.table)

    def test_regression_past_bound_is_named(self):
        self.assertEqual(self.v[("regressed", "latency_p50_ms")], "regression")
        self.assertEqual(list(self.v.values()).count("regression"), 1)
        self.assertEqual(len(self.problems), 1)
        self.assertIn("regressed latency_p50_ms: regression", self.problems[0])

    def test_exactly_at_bound_passes(self):
        self.assertEqual(self.v[("at-bound", "latency_p50_ms")], "within bound")

    def test_flat_when_every_run_reads_one_value(self):
        self.assertEqual(self.v[("at-bound", "max_rate_rps")], "flat")

    def test_gain_needs_nine_of_ten_pairs(self):
        self.assertEqual(self.v[("gain", "latency_p50_ms")], "gain")
        # Pair 0 now reads worse on the change side: 8/10 pairs better.
        self.table["workloads"]["gain"]["change"][0]["metrics"][
            "latency_p50_ms"]["value"] = 1.05
        v, _ = verdicts(self.spec, self.table)
        self.assertEqual(v[("gain", "latency_p50_ms")], "within bound")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(self.v[("wide", "latency_p50_ms")], "unresolved")

    def test_higher_failed_share_fails(self):
        run = self.table["workloads"]["at-bound"]["change"][3]
        run["failed"], run["correct"] = 1, False
        _, problems = verdicts(self.spec, self.table)
        self.assertIn("at-bound: change run 3 is incorrect", problems)
        self.assertTrue(any(p.startswith("at-bound: failed share 0.00025 >")
                            for p in problems), problems)

    def test_table_missing_a_side_or_metric_is_rejected(self):
        _, no_metric = load()
        del no_metric["workloads"]["gain"]["base"][5]["metrics"][
            "max_rate_rps"]
        with self.assertRaisesRegex(ValueError,
                                    "gain: base run lacks max_rate_rps"):
            ab.judge(self.spec, no_metric)
        del self.table["workloads"]["wide"]["change"]
        with self.assertRaisesRegex(ValueError, "wide: no change runs"):
            ab.judge(self.spec, self.table)
        del self.table["workloads"]["wide"]
        with self.assertRaisesRegex(ValueError, "wide: no runs"):
            ab.judge(self.spec, self.table)

if __name__ == "__main__":
    unittest.main()
