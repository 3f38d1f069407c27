"""Ground-truth checks.

Read answers are compared with a numpy reduction of the generated
inputs, never with anything the program computed.  Sketch answers are
compared with a reference sketch fed the same inserts directly, in
submission order, without the daemon, the scheduler or the memo.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Sketch overlaps are floats; a reassociated sum may move the last bits.
OVERLAP_TOL = 1e-9


def offline_value_check(truth: np.ndarray) -> Callable[[Any], bool]:
    """The returned index's value must be the aggregate at that index."""

    def check(result) -> bool:
        index = result.index
        if index is None or not 0 <= index < len(truth):
            return False
        return int(result.value) == int(truth[index])

    return check


def search_check(truth: np.ndarray,
                 predicate: Callable[[int], bool]) -> Callable[[Any], bool]:
    """A found index must hold its aggregate value and satisfy the
    predicate.  Reporting "none found" is a legitimate outcome of the
    bounded-error search and is not a wrong answer."""
    value_ok = offline_value_check(truth)

    def check(result) -> bool:
        if result.index is None:
            return True
        return value_ok(result) and predicate(int(truth[result.index]))

    return check


def read_ok(indices: Sequence[int], values: Sequence, truth) -> bool:
    """One read's values equal ``truth`` at its indices, in order."""
    return list(values) == [int(truth[j]) for j in indices]


def count_wrong_reads(answers: Sequence[Tuple[Tuple[int, ...], Sequence]],
                      truth) -> int:
    """Answers whose values differ from ``truth`` at their indices."""
    return sum(1 for indices, values in answers
               if not read_ok(indices, values, truth))


def _same_overlaps(got: Sequence[float], want: Sequence[float]) -> bool:
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=0.0, abs_tol=OVERLAP_TOL)
        for g, w in zip(got, want)
    )


def check_sketch_stream(ops: Sequence[Tuple[float, str, Tuple[int, ...]]],
                        accepted: Sequence[bool],
                        answers: Dict[int, List[Any]],
                        truth: np.ndarray,
                        lane_sketch: Any,
                        reference: Any,
                        probes: Sequence[int]) -> Tuple[int, bool]:
    """Replay the accepted stream on ``reference``; count wrong answers.

    Every sketch query must equal the reference's overlap after exactly
    the inserts submitted before it (the lane is strictly FIFO), every
    insert must be acknowledged item by item, and every oracle read must
    match ``truth``.  Returns ``(wrong answers, final state matches)``:
    after the drain the lane's sketch must equal the reference bucket by
    bucket and answer every probe identically.
    """
    wrong = 0
    reads = []
    for i, (_due, kind, payload) in enumerate(ops):
        if not accepted[i]:
            continue
        got = answers.get(i)
        if kind == "insert":
            for x in payload:
                reference.insert(x)
            if got is not None and list(got) != [True] * len(payload):
                wrong += 1
        elif kind == "sketch_query":
            want = [reference.query(y) for y in payload]
            if got is not None and not _same_overlaps(got, want):
                wrong += 1
        elif got is not None:
            reads.append((payload, got))
    wrong += count_wrong_reads(reads, truth)
    final_ok = (
        reference.inserts == lane_sketch.inserts
        and all(
            reference.bucket_count(b) == lane_sketch.bucket_count(b)
            for b in range(reference.spec.m)
        )
        and math.isclose(lane_sketch.state_fidelity(reference), 1.0,
                         rel_tol=0.0, abs_tol=OVERLAP_TOL)
        and _same_overlaps([lane_sketch.query(y) for y in probes],
                           [reference.query(y) for y in probes])
    )
    return wrong, final_ok
