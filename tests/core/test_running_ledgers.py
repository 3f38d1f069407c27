"""Running ledger totals agree with their records after every step.

``RoundLedger.total``/``by_phase()`` and ``QueryLedger.total_queries``
are kept as running totals, so a serving daemon reads them in O(1).
Hypothesis drives random sequences of charges, merges (prefixed,
colliding, rejected by ``on_collision="error"``, and failing part-way
on a negative charge) and batch records, and after every step compares
the ledgers with a plain-list reference fold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RoundLedger
from repro.queries.ledger import ParallelismViolation, QueryLedger

P = 4

PHASES = st.sampled_from(["setup", "batch:q", "coalesced", "a", "p:a"])
CHARGES = st.lists(st.tuples(PHASES, st.integers(0, 40)), max_size=6)

STEP = st.one_of(
    st.tuples(st.just("charge"), PHASES, st.integers(-2, 40)),
    st.tuples(
        st.just("merge"),
        CHARGES,
        st.sampled_from(["", "p:", "sub:"]),
        st.sampled_from(["add", "error"]),
        # Position of a negative charge inside the merged ledger, if any.
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    st.tuples(st.just("record"), st.integers(0, P + 1),
              st.sampled_from(["", "x", "y"])),
)


def _fold(charges):
    out = {}
    for phase, rounds in charges:
        out[phase] = out.get(phase, 0) + rounds
    return out


def _merge_reference(ref, other, prefix, on_collision):
    """The merge rule on a plain list; returns whether it raised."""
    if on_collision == "error":
        if {prefix + ph for ph, _ in other} & {ph for ph, _ in ref}:
            return True
    for phase, rounds in other:
        if rounds < 0:
            return True
        ref.append((prefix + phase, rounds))
    return False


def _check(ledger, ref, queries, records):
    assert ledger.charges == ref
    assert ledger.total == sum(r for _, r in ledger.charges)
    # by_phase equals the fold *including key order* (first charge).
    assert list(ledger.by_phase().items()) == list(_fold(ref).items())
    assert queries.total_queries == sum(size for size, _ in records)
    assert queries.batches == len(records)
    assert queries.signature() == tuple(records)


@settings(max_examples=200, deadline=None)
@given(st.lists(STEP, max_size=25))
def test_running_totals_match_records(steps):
    ledger, ref = RoundLedger(), []
    queries, records = QueryLedger(P), []
    for step in steps:
        if step[0] == "charge":
            _, phase, rounds = step
            if rounds < 0:
                with pytest.raises(ValueError):
                    ledger.charge(phase, rounds)
            else:
                ledger.charge(phase, rounds)
                ref.append((phase, rounds))
        elif step[0] == "merge":
            _, charges, prefix, on_collision, bad_at = step
            charges = list(charges)
            if bad_at is not None:
                charges.insert(min(bad_at, len(charges)), ("neg", -1))
            other = RoundLedger(charges=list(charges))
            assert other.total == sum(r for _, r in charges)
            raises = _merge_reference(ref, charges, prefix, on_collision)
            if raises:
                with pytest.raises(ValueError):
                    ledger.merge(other, prefix, on_collision)
            else:
                ledger.merge(other, prefix, on_collision)
            assert other.charges == charges  # the source is never touched
        else:
            _, size, label = step
            if size < 1:
                with pytest.raises(ValueError):
                    queries.record(size, label)
            elif size > P:
                with pytest.raises(ParallelismViolation):
                    queries.record(size, label)
            else:
                queries.record(size, label)
                records.append((size, label))
        _check(ledger, ref, queries, records)
    queries.reset()
    assert queries.total_queries == 0 and queries.signature() == ()


def test_by_phase_is_a_copy():
    ledger = RoundLedger()
    ledger.charge("a", 3)
    ledger.by_phase()["a"] = 99
    assert ledger.by_phase() == {"a": 3} and ledger.total == 3


def test_equal_charges_share_one_entry():
    ledger = RoundLedger()
    ledger.charge("a", 3)
    ledger.charge("a", 3)
    assert ledger.charges[0] is ledger.charges[1]


def test_equal_batch_records_share_one_object():
    queries = QueryLedger(P)
    queries.record(2, "x")
    queries.record(2, "x")
    queries.record(2, "y")
    first, second, third = queries.records
    assert first is second and first == second
    assert third.label == "y"


def test_equality_ignores_running_state():
    a = RoundLedger()
    a.charge("x", 2)
    assert a == RoundLedger(charges=[("x", 2)])
