"""Per-layer metrics and the self-time table of a traced run.

Layer names are the ``repro`` module each span wraps.  Counts and busy
times cover the traced run's setup and its measured window; shares are
taken over the measured window only.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from .stats import TooFewSamples, percentile
from .trace import Tracer, self_times

#: Span-name prefix -> layer, longest prefix first.
LAYERS = (
    "congest.network",
    "core.framework.prepare",
    "core.framework.oracle",
    "core.framework.batch",
    "congest.aggregate",
    "core.cost",
    "sched.scheduler",
    "sched.memo",
    "sched.sketch",
    "apps.sketches",
    "serve.daemon",
    "queries",
    "bench",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


def _pct(values: List[float], q: float) -> float:
    """Percentile for a per-layer figure; 0 when there are too few."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return 0.0


def _tenth_medians(values: List[float]) -> Tuple[float, float]:
    """Median of the first and of the last tenth of ``values``."""
    if not values:
        return 0.0, 0.0
    tenth = max(1, len(values) // 10)
    return (statistics.median(values[:tenth]),
            statistics.median(values[-tenth:]))


def per_layer(tracer: Tracer, traced, untraced,
              window: Tuple[int, int]) -> Dict[str, Tuple[float, str, str]]:
    spans = tracer.by_name()
    counts = tracer.counts
    samples = tracer.samples
    window_s = (window[1] - window[0]) / 1e9

    def c(key):
        return float(counts.get(key, 0))

    def busy(*names):
        return sum(spans.get(n, {}).get("busy_s", 0.0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    arr = tracer.arrays()
    in_window = arr["start"] >= window[0]
    oracle_id = (tracer.names.index("core.framework.oracle")
                 if "core.framework.oracle" in tracer.names else -1)
    oracle_window_s = float(
        (arr["end"] - arr["start"])[in_window & (arr["name_id"] == oracle_id)
                                    & ~arr["nested"]].sum()) / 1e9

    ops = traced.completed
    batch_first, batch_last = _tenth_medians(
        samples.get("sched.scheduler.batch_us", []))
    waits = samples.get("serve.daemon.queue_wait_ms", [])
    admit = samples.get("serve.daemon.admit_us", [])
    lanes = traced.details.get("report", {}).get("lanes", {})
    sketch_items = c("apps.sketches.insert_calls") + c(
        "apps.sketches.query_calls")
    traced_rate = ratio(traced.completed, traced.elapsed_s)
    untraced_rate = ratio(untraced.completed, untraced.elapsed_s)

    m = {
        "congest.network.fingerprint_calls": (
            float(spans.get("congest.network.fingerprint", {}).get(
                "spans", 0)), "count"),
        "congest.network.fingerprint_s": (
            busy("congest.network.fingerprint"), "s"),
        "core.framework.prepare.calls": (
            float(spans.get("core.framework.prepare", {}).get("spans", 0)),
            "count"),
        "core.framework.prepare.hits": (c("core.framework.prepare.hits"),
                                        "count"),
        "core.framework.prepare.busy_s": (busy("core.framework.prepare"),
                                          "s"),
        "core.framework.oracle.calls": (
            float(spans.get("core.framework.oracle", {}).get("spans", 0)),
            "count"),
        "core.framework.oracle.busy_s": (busy("core.framework.oracle"), "s"),
        "core.framework.oracle.share": (ratio(oracle_window_s, window_s),
                                        "ratio"),
        "queries.self_s": (self_s("queries"), "s"),
        "queries.batches_per_op": (
            ratio(c("core.framework.batch.count"), ops), "count"),
        "core.framework.batch.count": (c("core.framework.batch.count"),
                                       "count"),
        "core.framework.batch.busy_s": (busy("core.framework.batch"), "s"),
        "core.framework.batch.queries_per_batch": (
            ratio(c("core.framework.batch.queries"),
                  c("core.framework.batch.count")), "count"),
        "congest.aggregate.rounds": (c("congest.aggregate.rounds"), "count"),
        "congest.aggregate.busy_s": (busy("congest.aggregate"), "s"),
        "congest.aggregate.us_per_round": (
            ratio(busy("congest.aggregate") * 1e6,
                  c("congest.aggregate.rounds")), "us"),
        "core.cost.charge_calls": (c("core.cost.charge_calls"), "count"),
        "core.cost.total_reads": (c("core.cost.total_reads"), "count"),
        "core.cost.charges_held": (c("core.cost.charges_held"), "count"),
        "core.cost.busy_s": (busy("core.cost.charge", "core.cost.total"),
                             "s"),
        "sched.scheduler.submits": (c("sched.scheduler.submits"), "count"),
        "sched.scheduler.batches": (c("sched.scheduler.batches"), "count"),
        "sched.scheduler.fill_ratio": (
            ratio(c("sched.scheduler.batch_items"),
                  c("sched.scheduler.batch_slots")), "ratio"),
        "sched.scheduler.self_s": (
            self_s("sched.scheduler.submit", "sched.scheduler.batch"), "s"),
        "sched.scheduler.batch_us_first": (batch_first, "us"),
        "sched.scheduler.batch_us_last": (batch_last, "us"),
        "sched.memo.lookups": (c("sched.memo.lookups"), "count"),
        "sched.memo.hits": (c("sched.memo.hits"), "count"),
        "sched.memo.hit_ratio": (
            ratio(c("sched.memo.hits"), c("sched.memo.lookups")), "ratio"),
        "sched.memo.invalidations": (c("sched.memo.invalidations"), "count"),
        "sched.memo.busy_s": (busy("sched.memo.lookup", "sched.memo.store",
                                   "sched.memo.invalidate"), "s"),
        "sched.sketch.inserts": (c("sched.sketch.inserts"), "count"),
        "sched.sketch.queries": (c("sched.sketch.queries"), "count"),
        "sched.sketch.batches": (c("sched.sketch.batches"), "count"),
        "sched.sketch.self_s": (
            self_s("sched.sketch.submit", "sched.sketch.batch"), "s"),
        "apps.sketches.insert_calls": (c("apps.sketches.insert_calls"),
                                       "count"),
        "apps.sketches.query_calls": (c("apps.sketches.query_calls"),
                                      "count"),
        "apps.sketches.busy_s": (
            busy("apps.sketches.insert", "apps.sketches.query"), "s"),
        "apps.sketches.us_per_item": (
            ratio(busy("apps.sketches.insert", "apps.sketches.query") * 1e6,
                  sketch_items), "us"),
        "serve.daemon.admitted": (c("serve.daemon.admitted"), "count"),
        "serve.daemon.rejected": (c("serve.daemon.rejected"), "count"),
        "serve.daemon.admit_us": (
            statistics.median(admit) if admit else 0.0, "us"),
        "serve.daemon.queue_wait_p50_ms": (_pct(waits, 50), "ms"),
        "serve.daemon.queue_wait_p90_ms": (_pct(waits, 90), "ms"),
        "serve.daemon.batches": (
            float(sum(lane["batches"] for lane in lanes.values())), "count"),
        "bench.loadgen.late_p90_ms": (_pct(traced.lateness_ms, 90), "ms"),
        "bench.trace_overhead": (ratio(traced_rate, untraced_rate), "ratio"),
    }
    notes = {
        "serve.daemon.queue_wait_p50_ms": f"{len(waits)} samples",
        "serve.daemon.queue_wait_p90_ms": f"{len(waits)} samples",
        "bench.loadgen.late_p90_ms": f"{len(traced.lateness_ms)} samples",
        "bench.trace_overhead": (f"{traced_rate:.1f} traced / "
                                 f"{untraced_rate:.1f} untraced ops/s"),
    }
    return {k: (v, unit, notes.get(k, "")) for k, (v, unit) in m.items()}


def self_time_table(tracer: Tracer, window: Tuple[int, int]
                    ) -> Dict[str, Tuple[float, float]]:
    """Self seconds per layer and their share of all traced self time.

    ``unattributed`` is the measured window minus every span's self
    time inside it: the event loop, the daemon's private worker code and
    the harness between spans.
    """
    arr = tracer.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    totals: Dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        if name == "bench.request":
            continue  # request lifetimes overlap everything; not a layer
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + float(
            own[arr["name_id"] == nid].sum()) / 1e9
    request_id = (tracer.names.index("bench.request")
                  if "bench.request" in tracer.names else -1)
    stacked = (arr["name_id"] != request_id) & (arr["start"] >= window[0])
    window_s = (window[1] - window[0]) / 1e9
    totals["unattributed"] = max(
        0.0, window_s - float(own[stacked].sum()) / 1e9)
    grand = sum(totals.values()) or 1.0
    ordered = sorted(totals.items(), key=lambda kv: -kv[1])
    return {layer: (round(s, 6), s / grand) for layer, s in ordered}
