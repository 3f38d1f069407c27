"""Sinks: where recorded events land.

The sink contract is two methods — ``handle(event)`` called synchronously
per event, and ``close()`` called when the owning recorder is closed.
Sinks must not mutate events (they are shared between sinks) and must not
assume any particular emitter: a sink sees whatever mixture of engine,
fault, query, and ledger events the run produces.

This module holds the dependency-free sinks; the ``Trace``-compatible
sink lives in :mod:`repro.congest.tracing` (:class:`TraceSink`) next to
the :class:`~repro.congest.tracing.Trace` type it builds, and the JSONL
writer in :mod:`repro.obs.jsonl` next to its schema validator.
"""

from __future__ import annotations

import copy
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import (
    CHARGE,
    COALESCE,
    DELIVER,
    FAULT,
    QUERY_BATCH,
    ROUND,
    SCENARIO,
    SERVE_BATCH,
    SERVE_DRAIN,
    SERVE_REQUEST,
    SKETCH,
    SPAN,
)


class Sink:
    """Base sink: subclasses override :meth:`handle`."""

    def handle(self, event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (default: nothing to release)."""


class MemorySink(Sink):
    """Keeps every event in an in-memory list, in emission order."""

    def __init__(self):
        self.events: List = []

    def handle(self, event) -> None:
        self.events.append(event)

    def events_of_kind(self, kind: str) -> List:
        return [e for e in self.events if e.kind == kind]


def _add_per_key(mine: dict, theirs: dict) -> dict:
    for key, value in theirs.items():
        mine[key] = mine.get(key, 0) + value
    return mine


def _first_wins(mine: dict, theirs: dict) -> dict:
    for key, value in theirs.items():
        mine.setdefault(key, value)
    return mine


def _append_unique(mine: list, theirs: list) -> list:
    for item in theirs:
        if item not in mine:
            mine.append(item)
    return mine


#: merge rule -> (empty value, fold another sink's value into ours).
_RULES: Dict[str, Tuple[type, Callable[[Any, Any], Any]]] = {
    "sum": (int, operator.add),
    # handle() keeps the highest round number seen, and round numbers
    # restart per engine run, so shards take the max.
    "max": (int, max),
    "per-key sum": (dict, _add_per_key),
    "first wins": (dict, _first_wins),
    "ordered unique": (list, _append_unique),
}


def _encode_edges(edge_bits: Dict[Tuple[int, int], int]) -> Dict[str, int]:
    return {f"{src},{dst}": bits for (src, dst), bits in edge_bits.items()}


def _decode_edges(state: Dict[str, int]) -> Dict[Tuple[int, int], int]:
    return {
        tuple(int(part) for part in key.split(",")): bits
        for key, bits in state.items()
    }


#: Every :class:`MetricsSink` counter, in snapshot order: ``(name, merge
#: rule)``.  ``__init__``, ``merge``, ``to_state`` and ``from_state`` are
#: loops over this table; ``handle`` gives the counters their meaning.
_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("engine_rounds", "max"),
    ("vectorized_rounds", "sum"),
    # rounds run under a non-default communication model, per model
    # name; default-CONGEST rounds carry no model tag.
    ("rounds_by_model", "per-key sum"),
    # ledger rounds charged under a non-default model, per model.
    ("charged_by_model", "per-key sum"),
    ("messages", "sum"),
    ("bits", "sum"),
    # payload bits per directed edge (src, dst).
    ("edge_bits", "per-key sum"),
    ("fault_counts", "per-key sum"),
    ("query_batches", "sum"),
    ("total_queries", "sum"),
    ("batches_by_label", "per-key sum"),
    ("charge_events", "sum"),
    ("charges_by_phase", "per-key sum"),
    # the span each phase was first charged under.
    ("phase_span", "first wins"),
    ("charged_by_span", "per-key sum"),
    ("span_names", "ordered unique"),
    ("coalesced_batches", "sum"),
    ("coalesced_queries", "sum"),
    ("coalesced_submissions", "sum"),
    ("coalesce_rounds", "sum"),
    ("memo_hits", "sum"),
    ("memo_misses", "sum"),
    ("memo_evictions", "sum"),
    ("serve_requests", "per-key sum"),  # status -> count
    ("serve_queries", "sum"),
    ("serve_batches", "sum"),
    ("serve_batch_rounds", "sum"),
    ("serve_drains", "sum"),
    ("scenario_events", "sum"),
    # accumulated wall-clock microseconds per link model name.
    ("wall_clock_by_link", "per-key sum"),
    # physical sketch operations by op kind, summing payload widths;
    # memo-edge sketch events land in sketch_memo instead.
    ("sketch_ops", "per-key sum"),
    # sketch-lane memo edges by outcome ("hit"/"invalidate").
    ("sketch_memo", "per-key sum"),
    # memo entries dropped by write-path invalidation.
    ("memo_invalidations", "sum"),
)

#: counter -> (to_state encoder, from_state decoder) where JSON needs one;
#: every other counter is copied as is.
_CODECS = {"edge_bits": (_encode_edges, _decode_edges)}
_PLAIN = (copy.copy, copy.copy)


class MetricsSink(Sink):
    """Aggregating counters: the one-pass metrics registry.

    Accumulates everything ``python -m repro trace`` reports — engine
    round/message/bit totals, per-edge bit volume, fault counts by kind,
    query-batch counts, and per-phase round charges (with the span each
    phase was first charged under) — without retaining the events.
    """

    def __init__(self):
        for name, rule in _COUNTERS:
            empty, _fold = _RULES[rule]
            setattr(self, name, empty())

    def handle(self, event) -> None:
        kind = event.kind
        if kind == DELIVER:
            self.messages += 1
            self.bits += event.bits
            edge = (event.src, event.dst)
            self.edge_bits[edge] = self.edge_bits.get(edge, 0) + event.bits
        elif kind == ROUND:
            if event.round_no > self.engine_rounds:
                self.engine_rounds = event.round_no
            if event.mode == "vectorized":
                self.vectorized_rounds += 1
            if event.model:
                self.rounds_by_model[event.model] = (
                    self.rounds_by_model.get(event.model, 0) + 1
                )
        elif kind == CHARGE:
            self.charge_events += 1
            if event.model:
                self.charged_by_model[event.model] = (
                    self.charged_by_model.get(event.model, 0) + event.rounds
                )
            self.charges_by_phase[event.phase] = (
                self.charges_by_phase.get(event.phase, 0) + event.rounds
            )
            self.phase_span.setdefault(event.phase, event.span)
            self.charged_by_span[event.span] = (
                self.charged_by_span.get(event.span, 0) + event.rounds
            )
        elif kind == QUERY_BATCH:
            self.query_batches += 1
            self.total_queries += event.size
            self.batches_by_label[event.label] = (
                self.batches_by_label.get(event.label, 0) + 1
            )
        elif kind == FAULT:
            self.fault_counts[event.fault] = (
                self.fault_counts.get(event.fault, 0) + 1
            )
        elif kind == SPAN:
            if event.phase == "begin" and event.span not in self.span_names:
                self.span_names.append(event.span)
        elif kind == COALESCE:
            if event.memo == "hit":
                self.memo_hits += 1
            elif event.memo == "evict":
                self.memo_evictions += 1
            elif event.memo == "invalidate":
                self.memo_invalidations += event.size
            else:
                self.memo_misses += 1
                self.coalesced_batches += 1
                self.coalesced_queries += event.size
                self.coalesced_submissions += event.submissions
                self.coalesce_rounds += event.rounds
        elif kind == SERVE_REQUEST:
            self.serve_requests[event.status] = (
                self.serve_requests.get(event.status, 0) + 1
            )
            if event.status == "accepted":
                self.serve_queries += event.queries
        elif kind == SERVE_BATCH:
            self.serve_batches += 1
            self.serve_batch_rounds += event.rounds
        elif kind == SERVE_DRAIN:
            self.serve_drains += 1
        elif kind == SCENARIO:
            self.scenario_events += 1
            self.wall_clock_by_link[event.link] = (
                self.wall_clock_by_link.get(event.link, 0.0)
                + event.wall_clock_us
            )
        elif kind == SKETCH:
            if event.memo:
                self.sketch_memo[event.memo] = (
                    self.sketch_memo.get(event.memo, 0) + 1
                )
            else:
                self.sketch_ops[event.op] = (
                    self.sketch_ops.get(event.op, 0) + event.count
                )

    # -- cross-process merge --------------------------------------------

    def merge(self, other: "MetricsSink") -> "MetricsSink":
        """Fold another sink's counters into this one, in place.

        The invariant: merging equals handling.  After
        ``a.merge(b)``, ``a`` holds exactly what it would hold had it
        handled ``b``'s event stream after its own — counters sum,
        per-key dicts sum per key, ``engine_rounds`` takes the max
        (``handle`` tracks the highest round number seen, and round
        counters restart per engine run), first-span attribution keeps
        the earlier sink's answer, and span names append in order
        without duplicates.  This is what stitches per-task
        :class:`MetricsSink` shards from parallel sweep workers into
        the single registry a one-process run would have produced.

        Returns ``self`` so merges chain/reduce.
        """
        for name, rule in _COUNTERS:
            _empty, fold = _RULES[rule]
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(self, name, fold(mine, theirs))
        return self

    # -- checkpoint serialization ---------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Lossless JSON-safe snapshot of every counter.

        Unlike :meth:`summary` (a human-facing digest), this round-trips
        through :meth:`from_state` exactly; edge keys are rendered as
        ``"src,dst"`` strings because JSON objects cannot key on tuples.
        """
        state = {}
        for name, _rule in _COUNTERS:
            encode, _decode = _CODECS.get(name, _PLAIN)
            state[name] = encode(getattr(self, name))
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MetricsSink":
        """Rebuild a sink from a :meth:`to_state` snapshot.

        Counters added after a snapshot was taken are absent from it and
        load as zero, so older snapshots stay loadable.
        """
        sink = cls()
        for name, _rule in _COUNTERS:
            if name in state:
                _encode, decode = _CODECS.get(name, _PLAIN)
                setattr(sink, name, decode(state[name]))
        return sink

    # -- derived --------------------------------------------------------

    @property
    def total_charged(self) -> int:
        """Total rounds charged across every ledger phase."""
        return sum(self.charges_by_phase.values())

    @property
    def total_faults(self) -> int:
        return sum(self.fault_counts.values())

    def busiest_edge(self) -> Tuple[Optional[Tuple[int, int]], int]:
        """(directed edge, bits) carrying the most payload bits.

        Ties break deterministically to the lowest ``(src, dst)`` pair;
        returns ``(None, 0)`` when no message was delivered.
        """
        if not self.edge_bits:
            return (None, 0)
        edge = min(self.edge_bits, key=lambda e: (-self.edge_bits[e], e))
        return (edge, self.edge_bits[edge])

    def summary(self) -> Dict[str, Any]:
        """A plain-dict digest (JSON-ready except the edge tuple)."""
        edge, edge_bits = self.busiest_edge()
        return {
            "engine_rounds": self.engine_rounds,
            "vectorized_rounds": self.vectorized_rounds,
            "rounds_by_model": dict(self.rounds_by_model),
            "messages": self.messages,
            "bits": self.bits,
            "busiest_edge": edge,
            "busiest_edge_bits": edge_bits,
            "fault_counts": dict(self.fault_counts),
            "query_batches": self.query_batches,
            "total_queries": self.total_queries,
            "charged_rounds": self.total_charged,
            "charges_by_phase": dict(self.charges_by_phase),
            "charged_by_span": dict(self.charged_by_span),
            "spans": list(self.span_names),
            "coalesced_batches": self.coalesced_batches,
            "coalesced_queries": self.coalesced_queries,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
            "serve_requests": dict(self.serve_requests),
            "serve_batches": self.serve_batches,
            "wall_clock_by_link": dict(self.wall_clock_by_link),
            "sketch_ops": dict(self.sketch_ops),
            "sketch_memo": dict(self.sketch_memo),
            "memo_invalidations": self.memo_invalidations,
        }
