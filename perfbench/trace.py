"""In-memory span tracer and the wrappers that put spans around repro's
public entry points.

A span records a name, a start and end time (``perf_counter_ns``), the
span that was open when it started (its parent) and the operation id the
harness had set.  Spans live in flat lists while the run is going and are
written to disk once, when it ends.  The wrappers are installed on the
classes and modules of ``repro`` for the traced run only and removed
afterwards, so the program under test is never edited.

Generators (the stepwise batch and engine-round entry points) are traced
one resume at a time: every ``next()`` is its own span, parented to
whatever span was open when it was resumed.  That keeps the span stack
consistent under the serving daemon's event loop, which suspends those
generators between rounds and never holds a span open across an
``await``.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Operation id of spans opened while no operation is current.
NO_OP = -1


class Tracer:
    """Span store with a parent stack and per-name counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.nested: List[bool] = []  # an ancestor carries the same name
        self._stack: List[int] = []
        self._depth: Dict[int, int] = {}
        self.current_op = NO_OP
        #: Free-form counters the wrappers bump (items, hits, ...).
        self.counts: Dict[str, float] = {}
        #: Per-event samples the wrappers record (batch durations, ...).
        self.samples: Dict[str, List[float]] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(depth > 0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        """End span ``idx`` (the innermost open one); returns its ns."""
        t = time.perf_counter_ns()
        self.end[idx] = t
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.names[self.name_id[idx]]!r} closed out of order"
            )
        nid = self.name_id[idx]
        self._depth[nid] -= 1
        return t - self.start[idx]

    def record(self, name: str, start_ns: int, end_ns: int, op: int) -> None:
        """Add a finished span that is not on the stack (a request's
        lifetime across ``await`` points)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.start.append(start_ns)
        self.end.append(end_ns)
        self.parent.append(-1)
        self.op.append(op)
        self.nested.append(False)

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "nested": np.asarray(self.nested, dtype=bool),
        }

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, busy seconds and self seconds.

        Busy time counts only spans with no same-named ancestor, so a
        recursive or re-entered call is not counted twice.
        """
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        own = self_times(arr["start"], arr["end"], arr["parent"])
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = arr["name_id"] == nid
            out[name] = {
                "spans": int(mask.sum()),
                "busy_s": float(dur[mask & ~arr["nested"]].sum()) / 1e9,
                "self_s": float(own[mask].sum()) / 1e9,
            }
        return out

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = (end - start).astype(np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


# -- wrappers ------------------------------------------------------------


def span_fn(tracer: Tracer, name: str, fn: Callable,
            after: Optional[Callable] = None) -> Callable:
    """Wrap a plain callable in a span; ``after(result, args, ns)`` may
    record counters from the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ns = tracer.close(idx)
        if after is not None:
            after(result, args, ns)
        return result

    return wrapper


def span_gen(tracer: Tracer, name: str, fn: Callable,
             on_start: Optional[Callable] = None,
             on_done: Optional[Callable] = None) -> Callable:
    """Wrap a generator function so every resume is a span.

    ``on_start(args)`` runs when the generator is created; ``on_done(
    value, yields, busy_ns)`` when it returns.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_start is not None:
            on_start(args)
        return traced_gen(tracer, name, fn(*args, **kwargs), on_done)

    return wrapper


def traced_gen(tracer: Tracer, name: str, inner, on_done):
    """Drive generator ``inner``, one span per resume (see span_gen)."""
    yields = 0
    busy = 0
    sent = None
    try:
        while True:
            idx = tracer.open(name)
            try:
                item = inner.send(sent)
            except StopIteration as stop:
                busy += tracer.close(idx)
                if on_done is not None:
                    on_done(stop.value, yields, busy)
                return stop.value
            except BaseException:
                tracer.close(idx)
                raise
            busy += tracer.close(idx)
            yields += 1
            sent = yield item
    finally:
        inner.close()


class Instrumentation:
    """Installs spans around repro's public entry points; undo with
    :meth:`remove`.  One instance per traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def install(self) -> "Instrumentation":
        from repro.apps.sketches import AmplitudeSketch
        from repro.congest.network import Network
        from repro.core import framework
        from repro.core.cost import RoundLedger
        from repro.sched.memo import ResultMemo
        from repro.sched.scheduler import CoalescingScheduler
        from repro.sched.sketch import SketchScheduler
        from repro.serve.daemon import QueryService
        from repro.serve.tenants import AdmissionError

        t = self.tracer
        bump, sample = t.bump, t.sample

        self._patch(Network, "topology_fingerprint", span_fn(
            t, "congest.network.fingerprint",
            Network.topology_fingerprint))

        def prepare(cache, network, seed=None, leader=None):
            hits = cache.hits
            out = orig_prepare(cache, network, seed=seed, leader=leader)
            bump("core.framework.prepare.hits", cache.hits - hits)
            return out

        orig_prepare = framework.PreparedCache.prepare
        self._patch(framework.PreparedCache, "prepare", span_fn(
            t, "core.framework.prepare", functools.wraps(orig_prepare)(prepare)))

        self._patch(framework.CongestBatchOracle, "__init__", span_fn(
            t, "core.framework.oracle", framework.CongestBatchOracle.__init__))
        self._patch(framework.DistributedInput, "aggregated", span_fn(
            t, "core.framework.oracle.fold",
            framework.DistributedInput.aggregated))

        def batch_start(args):
            bump("core.framework.batch.count")
            bump("core.framework.batch.queries", len(args[1]))

        self._patch(framework.CongestBatchOracle, "query_batch_steps",
                    span_gen(t, "core.framework.batch",
                              framework.CongestBatchOracle.query_batch_steps,
                              on_start=batch_start))

        def aggregate_done(value, yields, busy):
            bump("congest.aggregate.rounds", value[1])

        for fname in ("downcast_steps", "upcast_steps"):
            self._patch(framework, fname, span_gen(
                t, "congest.aggregate", getattr(framework, fname),
                on_done=aggregate_done))

        def charged(_result, args, _ns):
            bump("core.cost.charge_calls")
            held = len(args[0].charges)
            if held > t.counts.get("core.cost.charges_held", 0):
                t.counts["core.cost.charges_held"] = held

        self._patch(RoundLedger, "charge", span_fn(
            t, "core.cost.charge", RoundLedger.charge, after=charged))
        self._patch(RoundLedger, "total", property(span_fn(
            t, "core.cost.total", RoundLedger.total.fget,
            after=lambda *_: bump("core.cost.total_reads"))))

        self._patch(CoalescingScheduler, "submit", span_fn(
            t, "sched.scheduler.submit", CoalescingScheduler.submit,
            after=lambda *_: bump("sched.scheduler.submits")))

        orig_sched_batch = CoalescingScheduler.execute_batch_steps

        def sched_batch(sched):
            def done(size, _yields, busy):
                if size:
                    bump("sched.scheduler.batches")
                    bump("sched.scheduler.batch_items", size)
                    bump("sched.scheduler.batch_slots", sched.parallelism)
                    sample("sched.scheduler.batch_us", busy / 1e3)

            return traced_gen(t, "sched.scheduler.batch",
                           orig_sched_batch(sched), done)

        self._patch(CoalescingScheduler, "execute_batch_steps",
                    functools.wraps(orig_sched_batch)(sched_batch))

        def looked_up(result, _args, _ns):
            bump("sched.memo.lookups")
            if result is not None:
                bump("sched.memo.hits")

        self._patch(ResultMemo, "lookup", span_fn(
            t, "sched.memo.lookup", ResultMemo.lookup, after=looked_up))
        self._patch(ResultMemo, "store", span_fn(
            t, "sched.memo.store", ResultMemo.store))
        self._patch(ResultMemo, "invalidate_fingerprint", span_fn(
            t, "sched.memo.invalidate", ResultMemo.invalidate_fingerprint,
            after=lambda dropped, *_: bump("sched.memo.invalidations",
                                           dropped)))

        def sketch_submitted(_ticket, args, _ns):
            op = args[1]
            bump("sched.sketch.inserts" if op.is_write
                 else "sched.sketch.queries")

        self._patch(SketchScheduler, "submit", span_fn(
            t, "sched.sketch.submit", SketchScheduler.submit,
            after=sketch_submitted))
        self._patch(SketchScheduler, "execute_batch_steps", span_gen(
            t, "sched.sketch.batch", SketchScheduler.execute_batch_steps,
            on_done=lambda size, *_: bump("sched.sketch.batches")
            if size else None))

        self._patch(AmplitudeSketch, "insert", span_fn(
            t, "apps.sketches.insert", AmplitudeSketch.insert,
            after=lambda *_: bump("apps.sketches.insert_calls")))
        self._patch(AmplitudeSketch, "query", span_fn(
            t, "apps.sketches.query", AmplitudeSketch.query,
            after=lambda *_: bump("apps.sketches.query_calls")))

        orig_submit = QueryService.submit
        submitted_at: Dict[int, int] = {}

        def service_submit(service, operation, *args, **kwargs):
            idx = t.open("serve.daemon.submit")
            try:
                future = orig_submit(service, operation, *args, **kwargs)
            except AdmissionError:
                t.close(idx)
                bump("serve.daemon.rejected")
                raise
            except BaseException:
                t.close(idx)
                raise
            ns = t.close(idx)
            bump("serve.daemon.admitted")
            sample("serve.daemon.admit_us", ns / 1e3)
            submitted_at[id(operation)] = t.end[idx]
            return future

        self._patch(QueryService, "submit",
                    functools.wraps(orig_submit)(service_submit))

        # Time in the tenant queue: from QueryService.submit until the
        # daemon hands the same Operation object to a lane scheduler.
        def handed_over(orig):
            @functools.wraps(orig)
            def submit(sched, operation, *args, **kwargs):
                at = submitted_at.pop(id(operation), None)
                if at is not None:
                    sample("serve.daemon.queue_wait_ms",
                           (time.perf_counter_ns() - at) / 1e6)
                return orig(sched, operation, *args, **kwargs)
            return submit

        for cls in (CoalescingScheduler, SketchScheduler):
            self._patch(cls, "submit", handed_over(cls.__dict__["submit"]))
        return self
