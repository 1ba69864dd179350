"""Tests for the benchmark's own arithmetic (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def raw_doc(**overrides):
    """A minimal runner document for a 4-step untraced run."""
    doc = {
        "provenance": {"n": 1000, "pool": 1},
        "error": "",
        "setup_s": [5.0, 7.0, 6.0],
        "steps": 4,
        "timed_wall_s": 2.0,
        "step_wall_s": [0.5, 0.4, 0.6, 0.5],
        "vtime_window_s": [1.0, 3.0, 2.0],
        "failed_steps": 0,
        "force_rms_err": 1e-3,
        "force_ceiling": 2e-3,
        "restore_ok": None,
        "peak_rss_mb": 100.0,
    }
    doc.update(overrides)
    return doc


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_above(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100, shuffled below
        samples = samples[::2] + samples[1::2]
        value, pct, count = metrics.tail_percentile(samples)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(count, 100)

    def test_smallest_sample_count(self):
        samples = [3.0, 1.0, 2.0] + [10.0] * 10
        value, pct, count = metrics.tail_percentile(samples)
        self.assertEqual(value, 3.0)
        self.assertAlmostEqual(pct, 100.0 * 3 / 13)
        self.assertEqual(count, 13)

    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail_percentile([1.0] * 10))
        self.assertIsNone(metrics.tail_percentile([]))


class BodyStepsPerSecond(unittest.TestCase):
    def test_timed_steps_only(self):
        e2e = metrics.end_to_end(raw_doc())
        # 1000 bodies x 4 steps over 2.0 s of steps; the 5-7 s of set-up
        # must not enter.
        self.assertAlmostEqual(e2e["body_steps_per_s"], 2000.0)
        self.assertAlmostEqual(e2e["setup_s"], 6.0)

    def test_no_steps(self):
        self.assertEqual(metrics.body_steps_per_s(1000, []), 0.0)

    def test_medians(self):
        e2e = metrics.end_to_end(raw_doc())
        self.assertAlmostEqual(e2e["vtime_step_s"], 2.0)


class SelfTime(unittest.TestCase):
    def span(self, sid, parent, t0, t1, rank=0):
        return {"rank": rank, "id": sid, "parent": parent, "t0": t0, "t1": t1}

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(0, -1, 0.0, 10.0),
            self.span(1, 0, 1.0, 4.0),
            self.span(2, 0, 3.0, 6.0),  # overlaps child 1 on [3, 4]
            self.span(3, 0, 8.0, 9.0),
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[(0, 0)], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selfs[(0, 1)], 3.0)

    def test_children_clipped_to_parent(self):
        spans = [self.span(0, -1, 0.0, 2.0), self.span(1, 0, 1.0, 5.0)]
        self.assertAlmostEqual(metrics.self_times(spans)[(0, 0)], 1.0)

    def test_ranks_are_separate(self):
        spans = [self.span(0, -1, 0.0, 2.0, rank=0),
                 self.span(0, -1, 0.0, 2.0, rank=1),
                 self.span(1, 0, 0.0, 2.0, rank=1)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[(0, 0)], 2.0)
        self.assertAlmostEqual(selfs[(1, 0)], 0.0)


class FailureCount(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(metrics.count_failures(raw_doc()), (5, 0))

    def test_failed_steps_and_checks(self):
        doc = raw_doc(failed_steps=2, force_rms_err=3e-3, restore_ok=False)
        self.assertEqual(metrics.count_failures(doc), (6, 4))

    def test_missing_force_error_fails(self):
        self.assertEqual(metrics.count_failures(raw_doc(force_rms_err=None)),
                         (5, 1))

    def test_exception_is_one_more_failed_operation(self):
        doc = raw_doc(error="vmpi run aborted", steps=0, step_wall_s=[])
        self.assertEqual(metrics.count_failures(doc), (2, 1))

    def test_traced_run_counts_both_halves(self):
        doc = raw_doc(untraced={"steps": 3, "failed_steps": 1})
        self.assertEqual(metrics.count_failures(doc), (8, 1))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_metrics(self):
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
