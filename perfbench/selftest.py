"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the nearest-rank percentile's refusal rule, self time from nested
spans (plain and generator spans), and that a deliberately corrupted
answer is caught by each ground-truth check.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.stats import TooFewSamples, percentile  # noqa: E402
from perfbench.trace import Tracer, self_times, span_gen  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(99)), 90)  # rank 90, 9 beyond
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 50)  # rank 10, 9 beyond
        self.assertEqual(percentile(list(range(100)), 90), 89)

    def test_order_does_not_matter(self):
        values = list(range(200))
        shuffled = list(np.random.default_rng(0).permutation(values))
        self.assertEqual(percentile(values, 90), percentile(shuffled, 90))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # A [0, 100] holds B [10, 40] and C [50, 70]; B holds D [15, 25].
        start = np.array([0, 10, 15, 50])
        end = np.array([100, 40, 25, 70])
        parent = np.array([-1, 0, 1, 0])
        self.assertEqual(self_times(start, end, parent).tolist(),
                         [50, 20, 10, 20])

    def test_tracer_stack_assigns_parents(self):
        t = Tracer()
        a = t.open("a")
        b = t.open("b")
        t.close(b)
        c = t.open("c")
        t.close(c)
        t.close(a)
        self.assertEqual(t.parent, [-1, a, a])
        arr = t.arrays()
        own = self_times(arr["start"], arr["end"], arr["parent"])
        dur = arr["end"] - arr["start"]
        self.assertEqual(int(own[a]), int(dur[a] - dur[b] - dur[c]))
        self.assertTrue(all(x >= 0 for x in own))

    def test_out_of_order_close_is_an_error(self):
        t = Tracer()
        a = t.open("a")
        t.open("b")
        with self.assertRaises(RuntimeError):
            t.close(a)

    def test_generator_resumes_are_separate_spans(self):
        t = Tracer()

        def steps():
            yield 1
            yield 2
            return "done"

        traced = span_gen(t, "gen", steps)
        outer = t.open("outer")
        gen = traced()
        self.assertEqual(next(gen), 1)
        t.close(outer)
        self.assertEqual(next(gen), 2)
        with self.assertRaises(StopIteration) as stop:
            next(gen)
        self.assertEqual(stop.exception.value, "done")
        summary = t.by_name()
        self.assertEqual(summary["gen"]["spans"], 3)
        # The first resume ran inside "outer", the later ones at top level.
        self.assertEqual(t.parent[1:], [outer, -1, -1])
        self.assertLessEqual(summary["outer"]["self_s"],
                             summary["outer"]["busy_s"])


class _Result:
    def __init__(self, index, value):
        self.index = index
        self.value = value


class GroundTruthTest(unittest.TestCase):
    truth = np.array([5, 3, 9, 1])

    def test_corrupted_offline_value_is_caught(self):
        check = checks.offline_value_check(self.truth)
        self.assertTrue(check(_Result(2, 9)))
        self.assertFalse(check(_Result(2, 8)))
        self.assertFalse(check(_Result(None, 9)))

    def test_search_result_must_satisfy_predicate(self):
        check = checks.search_check(self.truth, lambda v: v >= 5)
        self.assertTrue(check(_Result(0, 5)))
        self.assertTrue(check(_Result(None, None)))  # "not found" is legal
        self.assertFalse(check(_Result(1, 3)))       # wrong index
        self.assertFalse(check(_Result(0, 6)))       # corrupted value

    def test_corrupted_read_is_caught(self):
        answers = [((0, 2), [5, 9]), ((3,), [1])]
        self.assertEqual(checks.count_wrong_reads(answers, self.truth), 0)
        corrupted = [((0, 2), [5, 9]), ((3,), [2])]
        self.assertEqual(checks.count_wrong_reads(corrupted, self.truth), 1)

    def _sketch(self):
        from repro.apps.sketches import QCount

        return QCount(m=64, k=3, seed=7, backend="emulated")

    def _stream(self):
        ops = [(0.0, "insert", (1, 2)), (0.1, "sketch_query", (1, 5)),
               (0.2, "read", (0, 3)), (0.3, "insert", (5,)),
               (0.4, "sketch_query", (5,))]
        lane = self._sketch()
        answers = {}
        for i, (_due, kind, payload) in enumerate(ops):
            if kind == "insert":
                for x in payload:
                    lane.insert(x)
                answers[i] = [True] * len(payload)
            elif kind == "sketch_query":
                answers[i] = [lane.query(y) for y in payload]
            else:
                answers[i] = [int(self.truth[j]) for j in payload]
        return ops, answers, lane

    def test_clean_sketch_stream_passes(self):
        ops, answers, lane = self._stream()
        wrong, final_ok = checks.check_sketch_stream(
            ops, [True] * len(ops), answers, self.truth, lane,
            self._sketch(), probes=range(20))
        self.assertEqual((wrong, final_ok), (0, True))

    def test_corrupted_sketch_answer_is_caught(self):
        ops, answers, lane = self._stream()
        answers[1] = [answers[1][0], answers[1][1] + 1e-3]
        answers[2] = [5, 2]
        wrong, final_ok = checks.check_sketch_stream(
            ops, [True] * len(ops), answers, self.truth, lane,
            self._sketch(), probes=range(20))
        self.assertEqual((wrong, final_ok), (2, True))

    def test_lost_insert_fails_final_check(self):
        ops, answers, lane = self._stream()
        ops = ops + [(0.5, "insert", (11,))]
        answers[len(ops) - 1] = [True]  # acknowledged, never applied
        _wrong, final_ok = checks.check_sketch_stream(
            ops, [True] * len(ops), answers, self.truth, lane,
            self._sketch(), probes=range(20))
        self.assertFalse(final_ok)


if __name__ == "__main__":
    unittest.main()
