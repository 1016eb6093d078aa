"""Self-tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The planted-answer counts of the generators are tested on the Rust side:
    cargo test --manifest-path perfbench/Cargo.toml
"""

import unittest

import stats


class TailPercentile(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 111))  # 110 samples
        pct, value = stats.tail(values)
        self.assertAlmostEqual(pct, 100 * 100 / 110)
        self.assertEqual(value, 100)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_caps_at_p99_with_many_samples(self):
        values = list(range(1, 5001))
        pct, value = stats.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 4950)
        self.assertGreaterEqual(sum(1 for v in values if v > value), 10)

    def test_exactly_p99_at_one_thousand_samples(self):
        pct, value = stats.tail(list(range(1, 1001)))
        self.assertEqual((pct, value), (99.0, 990))

    def test_too_few_samples_gives_the_maximum(self):
        self.assertEqual(stats.tail([3, 1, 2]), (None, 3))
        self.assertEqual(stats.tail(list(range(10))), (None, 9))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class MedianTail(unittest.TestCase):
    def test_split_cuts_consecutive_parts(self):
        self.assertEqual(stats.split([1, 2, 3, 4, 5], [2, 0, 3.0]), [[1, 2], [], [3, 4, 5]])
        with self.assertRaises(ValueError):
            stats.split([1, 2, 3], [1, 1])

    def test_one_slow_part_does_not_move_the_median_tail(self):
        quiet = list(range(1, 61))  # 60 samples: tail is the 50th, p83.3
        slow = [1000 + v for v in quiet]
        value, pcts = stats.median_tail([quiet, quiet, slow, quiet, quiet])
        self.assertEqual(value, 50)
        self.assertAlmostEqual(pcts[0], 100 * 50 / 60)
        # The pooled tail of the same samples is pulled into the slow part.
        self.assertGreater(stats.tail(quiet * 4 + slow)[1], 1000)

    def test_each_part_uses_its_own_percentile(self):
        value, pcts = stats.median_tail([list(range(1, 111)), list(range(1, 61)), [7, 8]])
        self.assertEqual(pcts[0], 100 * 100 / 110)
        self.assertIsNone(pcts[2])
        self.assertEqual(value, 50)  # median of 100, 50 and 8

    def test_empty_parts_are_skipped(self):
        self.assertEqual(stats.median_tail([[], [1, 2, 3]]), (3, [None]))
        with self.assertRaises(ValueError):
            stats.median_tail([[], []])


class Verdict(unittest.TestCase):
    def test_consistent_large_win_is_a_gain(self):
        pairs = [(100 + i % 3, 80 + i % 3) for i in range(10)]
        self.assertEqual(stats.verdict(pairs, "lower", 0.1), stats.GAIN)
        self.assertEqual(stats.win_share(pairs, "lower"), 1.0)

    def test_gain_for_higher_is_better(self):
        pairs = [(50 + i % 2, 60 + i % 2) for i in range(10)]
        self.assertEqual(stats.verdict(pairs, "higher", 0.1), stats.GAIN)

    def test_eight_wins_in_ten_is_not_a_gain(self):
        pairs = [(100, 80)] * 8 + [(100, 120)] * 2
        self.assertNotEqual(stats.verdict(pairs, "lower", 0.5), stats.GAIN)

    def test_win_inside_the_baseline_spread_is_not_a_gain(self):
        # B wins every pair by 1, but A's own runs spread over 20.
        a = [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]
        pairs = [(x, x - 1) for x in a]
        self.assertNotEqual(stats.verdict(pairs, "lower", 0.5), stats.GAIN)

    def test_ties_count_for_neither_side(self):
        pairs = [(100, 100)] * 5 + [(100, 90)] * 5
        self.assertEqual(stats.win_share(pairs, "lower"), 0.5)

    def test_worse_than_the_bound_is_a_regression(self):
        pairs = [(100 + i % 2, 130 + i % 2) for i in range(10)]
        self.assertEqual(stats.verdict(pairs, "lower", 0.1), stats.REGRESSION)
        pairs = [(100 + i % 2, 70 + i % 2) for i in range(10)]
        self.assertEqual(stats.verdict(pairs, "higher", 0.1), stats.REGRESSION)

    def test_identical_sides_show_no_change(self):
        pairs = [(100 + (i * 7) % 5, 100 + (i * 3) % 5) for i in range(10)]
        self.assertEqual(stats.verdict(pairs, "lower", 0.1), stats.NO_CHANGE)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        a = [60, 80, 100, 120, 140, 60, 80, 100, 120, 140]
        pairs = [(x, x + 5) for x in a]
        self.assertEqual(stats.verdict(pairs, "lower", 0.1), stats.UNRESOLVED)

    def test_wide_spread_but_every_b_better_is_resolved(self):
        pairs = [(200 + 40 * (i % 5), 100 + i) for i in range(10)]
        self.assertNotEqual(stats.verdict(pairs, "lower", 0.1), stats.UNRESOLVED)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))


if __name__ == "__main__":
    unittest.main()
