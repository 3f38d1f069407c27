"""Cross-process merge primitives: MetricsSink.merge / to_state, and
JSONL shard stitching.

The merge invariant under test: ``a.merge(b)`` must leave ``a`` exactly
as if it had handled ``b``'s event stream after its own.
"""

import json

import pytest

from repro.obs import (
    ChargeEvent,
    CoalesceEvent,
    DeliverEvent,
    FaultEvent,
    JSONLSink,
    MetricsSink,
    QueryBatchEvent,
    RoundEvent,
    ScenarioEvent,
    ServeBatchEvent,
    ServeDrainEvent,
    ServeRequestEvent,
    SketchEvent,
    SpanEvent,
    validate_jsonl,
)
from repro.obs.jsonl import merge_jsonl_shards

STREAM_A = [
    SpanEvent(name="setup", phase="begin", span="setup"),
    RoundEvent(round_no=1, messages=2, bits=16, span="setup"),
    DeliverEvent(round_no=1, src=0, dst=1, bits=8, span="setup"),
    DeliverEvent(round_no=1, src=1, dst=0, bits=8, span="setup"),
    ChargeEvent(phase="query", rounds=3, span="setup"),
    QueryBatchEvent(size=4, label="grover", span="setup"),
    FaultEvent(fault="drop", round_no=1, src=0, dst=1, span="setup"),
    SpanEvent(name="setup", phase="end", span="setup"),
]

STREAM_B = [
    SpanEvent(name="sweep", phase="begin", span="sweep"),
    RoundEvent(round_no=5, messages=1, bits=4, span="sweep"),
    DeliverEvent(round_no=5, src=0, dst=1, bits=4, span="sweep"),
    ChargeEvent(phase="query", rounds=2, span="sweep"),
    ChargeEvent(phase="uncompute", rounds=1, span="sweep"),
    QueryBatchEvent(size=2, label="grover", span="sweep"),
    QueryBatchEvent(size=1, label="minimum", span="sweep"),
    FaultEvent(fault="corrupt", round_no=5, src=1, dst=0, span="sweep"),
    SpanEvent(name="sweep", phase="end", span="sweep"),
]

#: Every event kind, every ``coalesce.memo`` and ``sketch.memo`` value,
#: and keys that collide with STREAM_A/B's (edge (0, 1), phase "query",
#: label "grover") so per-key sums and first-wins attribution are tested.
STREAM_C = [
    SpanEvent(name="serve", phase="begin", span="serve"),
    SpanEvent(name="setup", phase="begin", span="setup"),
    RoundEvent(round_no=3, messages=2, bits=12, span="serve",
               mode="vectorized"),
    RoundEvent(round_no=4, messages=1, bits=6, span="serve",
               model="congest-clique"),
    DeliverEvent(round_no=3, src=0, dst=1, bits=6, value=(1, 2),
                 span="serve"),
    DeliverEvent(round_no=3, src=2, dst=0, bits=6, span="serve"),
    FaultEvent(fault="drop", round_no=3, src=2, dst=0, bits=6,
               span="serve"),
    QueryBatchEvent(size=3, label="grover", span="serve"),
    ChargeEvent(phase="query", rounds=4, span="serve"),
    ChargeEvent(phase="setup", rounds=2, span="serve", model="local"),
    CoalesceEvent(size=4, submissions=2, callers=2, rounds=3,
                  span="serve"),
    CoalesceEvent(size=1, submissions=1, callers=1, rounds=0, memo="hit"),
    CoalesceEvent(size=2, submissions=0, callers=0, rounds=0,
                  memo="evict"),
    CoalesceEvent(size=3, submissions=0, callers=0, rounds=0,
                  memo="invalidate"),
    ServeRequestEvent(tenant="t0", queries=2, status="accepted"),
    ServeRequestEvent(tenant="t0", queries=2, status="completed",
                      wait_ms=2.5),
    ServeRequestEvent(tenant="t1", queries=5, status="rejected"),
    ServeRequestEvent(tenant="t1", queries=1, status="abandoned"),
    ServeBatchEvent(lane="default", size=2, tenants=1, rounds=5),
    ServeDrainEvent(reason="close", flushed=1, abandoned=1),
    ScenarioEvent(scenario="clean", link="classical-metro", rounds=6,
                  wall_clock_us=60.5),
    ScenarioEvent(scenario="clean", link="quantum-mature", rounds=6,
                  wall_clock_us=540.0),
    SketchEvent(sketch="lane0", op="insert", count=2),
    SketchEvent(sketch="lane0", op="query", count=1),
    SketchEvent(sketch="lane0", op="compose", count=4),
    SketchEvent(sketch="lane0", op="query", count=1, memo="hit"),
    SketchEvent(sketch="lane0", op="insert", count=2, memo="invalidate"),
    SpanEvent(name="setup", phase="end", span="setup"),
    SpanEvent(name="serve", phase="end", span="serve"),
]

#: (first, second) stream pairs the merge invariant is checked on.
PAIRS = [
    (STREAM_A, STREAM_B),
    (STREAM_A, STREAM_C),
    (STREAM_C, STREAM_A + STREAM_B),
    (STREAM_C, STREAM_C),
]


def _sink(events):
    sink = MetricsSink()
    for event in events:
        sink.handle(event)
    return sink


def _restored(events):
    state = json.loads(json.dumps(_sink(events).to_state()))
    return MetricsSink.from_state(state)


class TestMetricsSinkMerge:
    def test_merging_equals_handling(self):
        for first, second in PAIRS:
            merged = _sink(first).merge(_sink(second))
            sequential = _sink(first + second)
            # summary() omits several counters; to_state() holds them all.
            assert merged.to_state() == sequential.to_state()
            assert merged.summary() == sequential.summary()
            assert merged.edge_bits == sequential.edge_bits
            # Parallel workers ship snapshots through JSON before merging.
            restored = _restored(first).merge(_restored(second))
            assert restored.to_state() == sequential.to_state()

    def test_engine_rounds_take_the_max_not_the_sum(self):
        # Round counters restart per engine run: a one-process sink
        # tracking two runs holds the max, so merge must too.
        merged = _sink(STREAM_A).merge(_sink(STREAM_B))
        assert merged.engine_rounds == 5

    def test_merge_is_order_sensitive_only_where_handling_is(self):
        ab = _sink(STREAM_A).merge(_sink(STREAM_B))
        ba = _sink(STREAM_B).merge(_sink(STREAM_A))
        # Counters commute; first-span attribution and span order do
        # not (exactly like handling the streams in the other order).
        assert ab.messages == ba.messages
        assert ab.total_charged == ba.total_charged
        assert ab.phase_span["query"] == "setup"
        assert ba.phase_span["query"] == "sweep"

    def test_merge_returns_self_for_reduction(self):
        sink = MetricsSink()
        assert sink.merge(_sink(STREAM_A)) is sink

    def test_state_round_trip(self):
        for events in (STREAM_A + STREAM_B, STREAM_C):
            sink = _sink(events)
            clone = _restored(events)
            assert clone.to_state() == sink.to_state()
            assert clone.summary() == sink.summary()
            assert clone.edge_bits == sink.edge_bits  # tuple keys restored

    def test_state_is_json_safe(self):
        state = _sink(STREAM_A + STREAM_C).to_state()
        assert json.loads(json.dumps(state)) == state


class TestShardMerge:
    def _write_shard(self, path, events):
        sink = JSONLSink(str(path))
        for event in events:
            sink.handle(event)
        sink.close()

    def test_shards_stitch_into_one_valid_stream(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_shard(a, STREAM_A)
        self._write_shard(b, STREAM_B)
        out = tmp_path / "merged.jsonl"
        written = merge_jsonl_shards([str(a), str(b)], str(out))
        assert written == len(STREAM_A) + len(STREAM_B)
        counts = validate_jsonl(str(out))
        assert counts["meta"] == 1
        assert sum(counts.values()) - 1 == written
        assert counts["deliver"] == 3
        assert counts["charge"] == 3

    def test_shard_order_is_preserved(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_shard(a, STREAM_A)
        self._write_shard(b, STREAM_B)
        out = tmp_path / "merged.jsonl"
        merge_jsonl_shards([str(a), str(b)], str(out))
        spans = [
            line for line in out.read_text().splitlines() if "span" in line
        ]
        assert "setup" in spans[0] and "sweep" in spans[-1]

    def test_bad_shard_header_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "round", "round": 1}\n')
        with pytest.raises(ValueError, match="bad header"):
            merge_jsonl_shards([str(bad)], str(tmp_path / "out.jsonl"))
