"""Golden ``repro-trace/1`` bytes and ``MetricsSink`` state.

One event of every kind — each omit-when-default field both present and
absent, and non-JSON ``value`` payloads — written through
:class:`JSONLSink` must produce exactly these bytes, validate to these
counts, and fold into exactly this :meth:`MetricsSink.to_state`.  Any
refactor of the event declarations, the JSONL writer, the validator or
the sink must leave this file passing unedited.
"""

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

EVENTS = [
    SpanEvent(name="run", phase="begin", span="run"),
    RoundEvent(round_no=1, messages=2, bits=16, span="run"),
    RoundEvent(round_no=2, messages=1, bits=8, mode="vectorized",
               model="local", span="run"),
    RoundEvent(round_no=3, messages=0, bits=0, model="congest-clique",
               span="run"),
    DeliverEvent(round_no=1, src=0, dst=1, bits=8, value=(3, 4),
                 span="run"),
    DeliverEvent(round_no=2, src=1, dst=0, bits=8, value=complex(1, 2),
                 span="run"),
    FaultEvent(fault="drop", round_no=2, src=1, dst=0, bits=8,
               value={"seq": 7}, span="run"),
    FaultEvent(fault="crash", round_no=3, src=2, dst=2, span="run"),
    QueryBatchEvent(size=4, label="grover", span="run"),
    QueryBatchEvent(size=2),
    ChargeEvent(phase="setup", rounds=5, span="run"),
    ChargeEvent(phase="batch:grover", rounds=3, model="congest-clique",
                span="run/query"),
    CoalesceEvent(size=6, submissions=2, callers=2, rounds=4, span="run"),
    CoalesceEvent(size=2, submissions=1, callers=1, rounds=0, memo="hit"),
    CoalesceEvent(size=1, submissions=0, callers=0, rounds=0,
                  memo="evict"),
    CoalesceEvent(size=3, submissions=0, callers=0, rounds=0,
                  memo="invalidate"),
    ServeRequestEvent(tenant="t0", queries=2, status="accepted"),
    ServeRequestEvent(tenant="t0", queries=2, status="completed",
                      wait_ms=1.5),
    ServeRequestEvent(tenant="t1", queries=9, status="rejected"),
    ServeBatchEvent(lane="default", size=3, tenants=2, rounds=7),
    ServeDrainEvent(reason="close", flushed=3, abandoned=1),
    ScenarioEvent(scenario="clean", link="classical-metro", rounds=9,
                  wall_clock_us=123.5),
    SketchEvent(sketch="lane0", op="insert", count=2),
    SketchEvent(sketch="lane0", op="query", count=1, memo="hit"),
    SketchEvent(sketch="lane0", op="insert", count=4, memo="invalidate"),
    SpanEvent(name="run", phase="end", span="run"),
]

GOLDEN = (
    '{"type": "meta", "schema": "repro-trace/1"}\n'
    '{"type": "span", "name": "run", "phase": "begin", "span": "run"}\n'
    '{"type": "round", "round": 1, "messages": 2, "bits": 16, "span": "run"}\n'
    '{"type": "round", "round": 2, "messages": 1, "bits": 8, "span": "run", '
    '"mode": "vectorized", "model": "local"}\n'
    '{"type": "round", "round": 3, "messages": 0, "bits": 0, "span": "run", '
    '"model": "congest-clique"}\n'
    '{"type": "deliver", "round": 1, "src": 0, "dst": 1, "bits": 8, '
    '"value": [3, 4], "span": "run"}\n'
    '{"type": "deliver", "round": 2, "src": 1, "dst": 0, "bits": 8, '
    '"value": "(1+2j)", "span": "run"}\n'
    '{"type": "fault", "fault": "drop", "round": 2, "src": 1, "dst": 0, '
    '"bits": 8, "value": {"seq": 7}, "span": "run"}\n'
    '{"type": "fault", "fault": "crash", "round": 3, "src": 2, "dst": 2, '
    '"bits": 0, "value": null, "span": "run"}\n'
    '{"type": "query_batch", "size": 4, "label": "grover", "span": "run"}\n'
    '{"type": "query_batch", "size": 2, "label": "", "span": ""}\n'
    '{"type": "charge", "phase": "setup", "rounds": 5, "span": "run"}\n'
    '{"type": "charge", "phase": "batch:grover", "rounds": 3, '
    '"span": "run/query", "model": "congest-clique"}\n'
    '{"type": "coalesce", "size": 6, "submissions": 2, "callers": 2, '
    '"rounds": 4, "memo": "miss", "span": "run"}\n'
    '{"type": "coalesce", "size": 2, "submissions": 1, "callers": 1, '
    '"rounds": 0, "memo": "hit", "span": ""}\n'
    '{"type": "coalesce", "size": 1, "submissions": 0, "callers": 0, '
    '"rounds": 0, "memo": "evict", "span": ""}\n'
    '{"type": "coalesce", "size": 3, "submissions": 0, "callers": 0, '
    '"rounds": 0, "memo": "invalidate", "span": ""}\n'
    '{"type": "serve.request", "tenant": "t0", "queries": 2, '
    '"status": "accepted", "wait_ms": 0.0, "span": ""}\n'
    '{"type": "serve.request", "tenant": "t0", "queries": 2, '
    '"status": "completed", "wait_ms": 1.5, "span": ""}\n'
    '{"type": "serve.request", "tenant": "t1", "queries": 9, '
    '"status": "rejected", "wait_ms": 0.0, "span": ""}\n'
    '{"type": "serve.batch", "lane": "default", "size": 3, "tenants": 2, '
    '"rounds": 7, "span": ""}\n'
    '{"type": "serve.drain", "reason": "close", "flushed": 3, "abandoned": 1, '
    '"span": ""}\n'
    '{"type": "scenario", "scenario": "clean", "link": "classical-metro", '
    '"rounds": 9, "wall_clock_us": 123.5, "span": ""}\n'
    '{"type": "sketch", "sketch": "lane0", "op": "insert", "count": 2, '
    '"span": ""}\n'
    '{"type": "sketch", "sketch": "lane0", "op": "query", "count": 1, '
    '"span": "", "memo": "hit"}\n'
    '{"type": "sketch", "sketch": "lane0", "op": "insert", "count": 4, '
    '"span": "", "memo": "invalidate"}\n'
    '{"type": "span", "name": "run", "phase": "end", "span": "run"}\n'
)

COUNTS = {
    "meta": 1,
    "span": 2,
    "round": 3,
    "deliver": 2,
    "fault": 2,
    "query_batch": 2,
    "charge": 2,
    "coalesce": 4,
    "serve.request": 3,
    "serve.batch": 1,
    "serve.drain": 1,
    "scenario": 1,
    "sketch": 3,
}

STATE = {
    "engine_rounds": 3,
    "vectorized_rounds": 1,
    "rounds_by_model": {"local": 1, "congest-clique": 1},
    "charged_by_model": {"congest-clique": 3},
    "messages": 2,
    "bits": 16,
    "edge_bits": {"0,1": 8, "1,0": 8},
    "fault_counts": {"drop": 1, "crash": 1},
    "query_batches": 2,
    "total_queries": 6,
    "batches_by_label": {"grover": 1, "": 1},
    "charge_events": 2,
    "charges_by_phase": {"setup": 5, "batch:grover": 3},
    "phase_span": {"setup": "run", "batch:grover": "run/query"},
    "charged_by_span": {"run": 5, "run/query": 3},
    "span_names": ["run"],
    "coalesced_batches": 1,
    "coalesced_queries": 6,
    "coalesced_submissions": 2,
    "coalesce_rounds": 4,
    "memo_hits": 1,
    "memo_misses": 1,
    "memo_evictions": 1,
    "serve_requests": {"accepted": 1, "completed": 1, "rejected": 1},
    "serve_queries": 2,
    "serve_batches": 1,
    "serve_batch_rounds": 7,
    "serve_drains": 1,
    "scenario_events": 1,
    "wall_clock_by_link": {"classical-metro": 123.5},
    "sketch_ops": {"insert": 2},
    "sketch_memo": {"hit": 1, "invalidate": 1},
    "memo_invalidations": 3,
}

#: A repro-checkpoint/1 snapshot from before the vectorized engine: no
#: vectorized_rounds, model, coalesce, serve, scenario or sketch keys.
PRE_VECTORIZED_STATE = {
    "engine_rounds": 4,
    "messages": 3,
    "bits": 24,
    "edge_bits": {"0,1": 16, "1,0": 8},
    "fault_counts": {"drop": 1},
    "query_batches": 2,
    "total_queries": 5,
    "batches_by_label": {"grover": 2},
    "charge_events": 1,
    "charges_by_phase": {"setup": 6},
    "phase_span": {"setup": "setup"},
    "charged_by_span": {"setup": 6},
    "span_names": ["setup"],
}


def _write(path):
    sink = JSONLSink(str(path))
    for event in EVENTS:
        sink.handle(event)
    sink.close()


def test_jsonl_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.jsonl"
    _write(path)
    assert path.read_text() == "".join(GOLDEN)


def test_golden_stream_validates(tmp_path):
    path = tmp_path / "golden.jsonl"
    _write(path)
    assert validate_jsonl(str(path)) == COUNTS


def test_metrics_state_is_pinned():
    sink = MetricsSink()
    for event in EVENTS:
        sink.handle(event)
    state = sink.to_state()
    assert state == STATE
    assert list(state) == list(STATE)  # snapshot key order too


def test_pre_vectorized_snapshot_loads_with_zeroed_later_counters():
    sink = MetricsSink.from_state(PRE_VECTORIZED_STATE)
    assert sink.edge_bits == {(0, 1): 16, (1, 0): 8}
    restored = sink.to_state()
    assert list(restored) == list(STATE)
    for key, value in restored.items():
        if key in PRE_VECTORIZED_STATE:
            assert value == PRE_VECTORIZED_STATE[key], key
        else:
            assert value == type(STATE[key])(), key
