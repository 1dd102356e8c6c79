"""Unit tests for the steadiness tool: python3 -m unittest discover perfbench"""

import unittest

from steady import last_json_line, per_seed, quartile_spread, seed_range, worsening


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # quantiles([1..9], n=4) with the default exclusive method gives
        # Q1 = 2.5 and Q3 = 7.5; the median is 5.
        self.assertAlmostEqual(quartile_spread(list(range(1, 10))), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(quartile_spread([4.0] * 10), 0.0)

    def test_order_does_not_matter(self):
        vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        self.assertAlmostEqual(quartile_spread(vals), quartile_spread(sorted(vals)))

    def test_degenerate_input_is_an_error(self):
        with self.assertRaises(ValueError):
            quartile_spread([1.0])
        with self.assertRaises(ValueError):
            quartile_spread([0.0, 0.0, 0.0])


class ResultLine(unittest.TestCase):
    def test_takes_the_last_line(self):
        out = 'metric x 1 ms\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n\n'
        self.assertEqual(last_json_line(out)["attempted"], 3)

    def test_rejects_missing_keys_and_empty_output(self):
        with self.assertRaises(ValueError):
            last_json_line('{"correct": true}')
        with self.assertRaises(ValueError):
            last_json_line("")

    def test_seed_range(self):
        self.assertEqual(seed_range("3-5"), [3, 4, 5])
        self.assertEqual(seed_range("7"), [7])


class PerSeed(unittest.TestCase):
    @staticmethod
    def record(wl, seed, value):
        return {"workload": wl, "seed": seed,
                "result": {"metrics": {"total_s": {"value": value, "unit": "s"}}}}

    def test_one_value_per_seed_in_seed_order(self):
        recs = [self.record("a", 2, 5.0), self.record("b", 1, 7.0), self.record("a", 1, 3.0)]
        self.assertEqual(per_seed(recs), {"a": {"total_s": [3.0, 5.0]}, "b": {"total_s": [7.0]}})

    def test_repeated_seed_counts_once_at_its_median(self):
        recs = [self.record("a", 1, v) for v in (9.0, 1.0, 2.0)] + [self.record("a", 2, 4.0)]
        self.assertEqual(per_seed(recs)["a"]["total_s"], [2.0, 4.0])


class Worsening(unittest.TestCase):
    def test_direction_follows_better(self):
        self.assertAlmostEqual(worsening(2.0, 2.5, "lower"), 0.25)
        self.assertAlmostEqual(worsening(2.0, 2.5, "higher"), -0.25)
        self.assertAlmostEqual(worsening(4.0, 3.0, "higher"), 0.25)


if __name__ == "__main__":
    unittest.main()
