"""Self-tests of the benchmark's metric arithmetic and crash accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import run  # noqa: E402


class PercentileChoice(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # p99 of 1000 samples is the 990th; ten lie beyond it.
        self.assertEqual(harness.samples_beyond(1000, 99.0), 10)
        self.assertEqual(harness.tail_percentile(1000), 99.0)
        # One sample fewer leaves nine beyond p99, so p90 is reported.
        self.assertEqual(harness.tail_percentile(999), 90.0)
        self.assertEqual(harness.tail_percentile(100), 90.0)
        self.assertEqual(harness.tail_percentile(99), 50.0)
        # Never above the percentile asked for, however many samples.
        self.assertEqual(harness.tail_percentile(10 ** 6, 99.0), 99.0)
        self.assertEqual(harness.tail_percentile(10 ** 6, 99.9), 99.9)
        # Too few samples for any tail: the median.
        self.assertEqual(harness.tail_percentile(5), 50.0)
        self.assertEqual(harness.tail_percentile(0), 50.0)

    def test_nearest_rank_values(self):
        values = list(range(1, 1001))  # input order must not matter
        values.reverse()
        self.assertEqual(harness.percentile(values, 50.0), 500)
        self.assertEqual(harness.percentile(values, 99.0), 990)
        self.assertEqual(harness.tail(values, 99.0), (990, 99.0))
        # Without the largest sample, 1..999 remain: too few beyond p99, so
        # the tail is p90, the 900th smallest.
        self.assertEqual(harness.tail(values[1:], 99.0), (900, 90.0))
        self.assertEqual(harness.percentile([], 99.0), 0.0)
        self.assertEqual(harness.percentile([7.0], 99.0), 7.0)

    def test_grouped_samples_count_once(self):
        # 2000 latencies from 125 batches of 16: only p90 has ten batches
        # beyond it.
        values = [float(i // 16) for i in range(2000)]
        self.assertEqual(harness.tail(values, 99.0), (123.0, 99.0))
        self.assertEqual(harness.tail(values, 99.0, 125), (112.0, 90.0))


class ErrorAccounting(unittest.TestCase):
    def test_child_killed_by_sigabrt_fails_every_attempted_operation(self):
        child = [sys.executable, "-c",
                 "import os\n"
                 "print('{\"progress\": 64}', flush=True)\n"
                 "print('{\"progress\": 128}', flush=True)\n"
                 "os.abort()\n"]
        code, progress, result, rss_mb = run.run_child(child, 60)
        self.assertEqual(code, -6)
        self.assertEqual(progress, 128)
        self.assertIsNone(result)
        self.assertGreater(rss_mb, 0)
        attempted, failed, crash = harness.account(progress, 3, code)
        self.assertEqual((attempted, failed, crash), (128, 128, "SIGABRT"))
        self.assertEqual(harness.error_rate(attempted, failed), 1.0)

    def test_crash_before_any_progress_counts_one_failed_operation(self):
        self.assertEqual(harness.account(0, 0, -11), (1, 1, "SIGSEGV"))

    def test_clean_exit_keeps_reported_failures(self):
        self.assertEqual(harness.account(1000, 3, 0), (1000, 3, None))
        self.assertAlmostEqual(harness.error_rate(1000, 3), 0.003)
        # Nothing attempted is a failed run, not a perfect one.
        self.assertEqual(harness.error_rate(0, 0), 1.0)

    def test_crashed_run_reports_every_metric_as_failed(self):
        status, attempted, failed, metrics, units = run.crashed(
            "serve_closed", 0, 40, -6, "run")
        self.assertEqual(status, "crashed")
        self.assertEqual((attempted, failed), (40, 40))
        self.assertEqual(set(metrics), set(run.END_TO_END) | set(run.SERVING_EXTRA))
        self.assertEqual(metrics["ok_frac"], 0.0)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json at the repository root names what run.py reports."""

    def setUp(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.benchmark = json.load(f)

    def test_metric_names_and_units_match(self):
        for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in self.benchmark[key]}
            self.assertEqual(listed, reported, key)

    def test_gated_workloads_make_no_pool_hand_off(self):
        # ServeEngine workloads fan out on the global pool, whose completion
        # race can abort a run; a gated run must not fail.
        names = {w["name"] for w in self.benchmark["workloads"]}
        self.assertLessEqual(names, set(run.WORKLOADS))
        self.assertFalse(names & set(run.ENGINE))


class DueTimeLatency(unittest.TestCase):
    def test_latency_runs_from_due_time_and_lateness_is_reported(self):
        due = [0.0, 10.0, 20.0, 30.0]
        # The generator stalled: request 1 went out 5 ms late, request 2 on
        # time, and request 3 was refused (not ok).
        sent = [0.0, 15.0, 20.0, 30.5]
        done = [2.0, 18.0, 21.0, 31.0]
        ok = [1, 1, 1, 0]
        latency, late = harness.due_time_latencies(due, sent, done, ok)
        # Request 1 waited 3 ms in the system but 8 ms since it was due.
        self.assertEqual(latency, [2.0, 8.0, 1.0])
        self.assertEqual(late, [0.0, 5.0, 0.0, 0.5])

    def test_early_send_is_not_negative_lateness(self):
        _, late = harness.due_time_latencies([5.0], [4.999], [6.0], [1])
        self.assertEqual(late, [0.0])

    def test_failed_requests_miss_the_latency_limit(self):
        latency, _ = harness.due_time_latencies(
            [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 30.0, 3.0], [1, 1, 0])
        # Three sent: one within 10 ms, one over, one failed.
        self.assertAlmostEqual(harness.slo_met_frac(latency, 3, 10.0), 1 / 3)


if __name__ == "__main__":
    unittest.main()
