"""Self-tests for the benchmark's arithmetic (metrics.py).

run.py runs these before every measurement; to run them alone:
    python3 perfbench/run.py --selftest
"""

import unittest

import metrics


def span(sid, start, end, parent=0, name="s"):
    return {"id": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_leaves_ten_beyond_p90_of_100(self):
        samples = list(range(100, 0, -1))  # unsorted input
        value, beyond, count = metrics.percentile(samples, 0.9)
        self.assertEqual((value, beyond, count), (90, 10, 100))

    def test_rank_is_exact(self):
        # In floating point 0.55 * 100 is 55.00000000000001: rank 56.
        self.assertEqual(metrics.percentile(list(range(1, 101)), 0.55),
                         (55, 45, 100))

    def test_median_rank(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 0.5), (2, 1, 3))
        self.assertEqual(metrics.percentile(list(range(1, 101)), 0.5),
                         (50, 50, 100))

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(list(range(100)), 0.9),
                         (89, 10, 100))
        with self.assertRaises(metrics.MetricError):
            metrics.tail_percentile(list(range(99)), 0.9)

    def test_sample_count_is_reported(self):
        _, beyond, count = metrics.tail_percentile(list(range(250)), 0.9)
        self.assertEqual((beyond, count), (25, 250))

    def test_rejects_empty_and_bad_quantiles(self):
        with self.assertRaises(metrics.MetricError):
            metrics.percentile([], 0.5)
        with self.assertRaises(metrics.MetricError):
            metrics.percentile([1.0], 0)
        with self.assertRaises(metrics.MetricError):
            metrics.percentile([1.0], 1.5)

    def test_median_even_and_odd(self):
        self.assertEqual(metrics.median([4, 1, 3]), 3)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)


class FailedFracTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(metrics.failed_frac(200, 0), 0.0)
        self.assertEqual(metrics.failed_frac(200, 3), 0.015)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(metrics.failed_frac(0, 0), 1.0)

    def test_inconsistent_counts_rejected(self):
        with self.assertRaises(metrics.MetricError):
            metrics.failed_frac(5, 6)
        with self.assertRaises(metrics.MetricError):
            metrics.failed_frac(-1, 0)


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(metrics.self_time(span(1, 0, 100), []), 100)

    def test_nested_children(self):
        # A child inside another child covers nothing extra.
        parent = span(1, 0, 100)
        kids = [span(2, 10, 50, 1), span(3, 20, 30, 1), span(4, 60, 70, 1)]
        self.assertEqual(metrics.self_time(parent, kids), 100 - 40 - 10)

    def test_overlapping_children_counted_once(self):
        # Pool threads: siblings overlap in time.
        parent = span(1, 0, 100)
        kids = [span(2, 10, 60, 1), span(3, 40, 80, 1), span(4, 70, 90, 1)]
        self.assertEqual(metrics.self_time(parent, kids), 100 - 80)

    def test_children_outside_the_parent_are_clipped(self):
        parent = span(1, 100, 200)
        kids = [span(2, 50, 120, 1), span(3, 190, 260, 1)]
        self.assertEqual(metrics.self_time(parent, kids), 100 - 30)

    def test_span_summary_sums_self_time_by_name(self):
        spans = [span(1, 0, 1000, 0, "exhibit"),
                 span(2, 0, 600, 1, "task"), span(3, 100, 700, 1, "task"),
                 span(4, 700, 800, 1, "merge")]
        s = metrics.span_summary(spans)
        self.assertEqual(s["task"]["count"], 2)
        self.assertAlmostEqual(s["exhibit"]["self_s"], 200e-9)
        self.assertAlmostEqual(s["task"]["total_s"], 1200e-9)

    def test_batch_stats_skips_incomplete_batches(self):
        spans = [span(1, 0, 1000, 0, "batch"),
                 span(2, 0, 500, 1, "op"), span(3, 0, 1000, 1, "op"),
                 span(4, 2000, 3000, 0, "batch"), span(5, 2000, 2100, 4, "op")]
        s = metrics.batch_stats(spans, "batch", "op", 2, threads=2)
        self.assertAlmostEqual(s["busy_frac"], 0.75)
        self.assertAlmostEqual(s["idle_s"], 500e-9)
        self.assertAlmostEqual(s["longest_task_s"], 1000e-9)
        self.assertAlmostEqual(s["lower_bound_s"], 1000e-9)
        self.assertIsNone(metrics.batch_stats(spans, "batch", "op", 3, 2))


class FingerprintTest(unittest.TestCase):
    def test_order_independent_and_value_sensitive(self):
        a = metrics.fnv1a64({"x": 1, "y": 2})
        self.assertEqual(a, metrics.fnv1a64({"y": 2, "x": 1}))
        self.assertNotEqual(a, metrics.fnv1a64({"x": 1, "y": 3}))
        self.assertEqual(metrics.fnv1a64({}), "cbf29ce484222325")


if __name__ == "__main__":
    unittest.main()
