"""Typed events carried by the observability spine.

Every accounting mechanism in the repository speaks through these twelve
event kinds (DESIGN.md §"Observability spine"):

* ``round`` — one engine communication round (message count, payload bits),
* ``deliver`` — one message delivered by the engine,
* ``fault`` — one injected fault (drop / corrupt / delay / crash / recover),
* ``query_batch`` — one application of the parallel oracle O^{⊗p},
* ``charge`` — one :class:`~repro.core.cost.RoundLedger` phase charge,
* ``span`` — begin/end of a named phase opened on the recorder,
* ``coalesce`` — one :mod:`repro.sched` scheduler action: a physical
  coalesced batch executed on the shared oracle (``memo="miss"``), a
  submission served straight from the content-addressed result memo
  (``memo="hit"``, zero rounds), or an LRU eviction from that memo
  (``memo="evict"``),
* ``serve.request`` — one request's admission verdict or completion in
  the :mod:`repro.serve` daemon,
* ``serve.batch`` — one physical batch executed by a daemon lane,
* ``serve.drain`` — the daemon's shutdown handshake (what was flushed,
  what was abandoned),
* ``scenario`` — one wall-clock pricing of a run under a scenario's
  :class:`~repro.core.cost.LinkCostModel` (PR 9's "Mind the Õ" layer):
  which scenario, which link, the charged rounds, and what they cost in
  microseconds once per-message latency and constant factors are paid,
* ``sketch`` — one amplitude-sketch operation (:mod:`repro.apps.
  sketches`): a physical ``insert``/``query``/``compose`` on a sketch,
  or a sketch-lane memo edge (``memo="hit"`` for a query served without
  touching the state, ``memo="invalidate"`` for entries dropped by a
  write — the PR 10 write-path invalidation protocol).

Events are small frozen dataclasses.  Each carries a ``span`` string — the
``/``-joined path of recorder spans open when it was emitted — so any sink
can attribute costs to phases without coordinating with the emitters.

:func:`to_json` maps an event onto the stable ``repro-trace/1`` JSONL
record documented in :mod:`repro.obs.jsonl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, NamedTuple, Tuple, get_type_hints

#: The twelve event kinds, as they appear in JSONL ``type`` fields.
ROUND = "round"
DELIVER = "deliver"
FAULT = "fault"
QUERY_BATCH = "query_batch"
CHARGE = "charge"
SPAN = "span"
COALESCE = "coalesce"
SERVE_REQUEST = "serve.request"
SERVE_BATCH = "serve.batch"
SERVE_DRAIN = "serve.drain"
SCENARIO = "scenario"
SKETCH = "sketch"


def _optional(default: Any = "") -> Any:
    """A field the JSONL record omits while it holds ``default``."""
    return field(default=default, metadata={"omit_default": True})


def _renamed(json_key: str) -> Any:
    """A required field whose JSONL key differs from its attribute name."""
    return field(metadata={"json": json_key})


class _Field(NamedTuple):
    """One field of a JSONL record, derived from its event dataclass."""

    attr: str
    key: str  # the JSONL key
    type: Any  # the resolved annotation
    optional: bool  # omitted from the record while it equals ``default``
    default: Any


#: kind -> event class, in declaration order.
_CLASSES: Dict[str, type] = {}

#: kind -> record fields in JSONL order: required fields in declaration
#: order (so ``span`` closes them), then the optional ones.
_LAYOUT: Dict[str, Tuple[_Field, ...]] = {}


def _event(cls: type) -> type:
    """Register an event dataclass and derive its JSONL record layout."""
    hints = get_type_hints(cls)
    declared = fields(cls)
    if declared[-1].name != "span":
        raise TypeError(f"{cls.__name__}: 'span' must be the last field")
    layout = [
        _Field(f.name, f.metadata.get("json", f.name), hints[f.name],
               bool(f.metadata.get("omit_default")), f.default)
        for f in declared
    ]
    _CLASSES[cls.kind] = cls
    _LAYOUT[cls.kind] = tuple(sorted(layout, key=lambda f: f.optional))
    return cls


@_event
@dataclass(frozen=True)
class RoundEvent:
    """One engine communication round: its delivery count and bit volume.

    ``mode`` names the execution path that ran the round: ``""`` for the
    per-node loops (dense/active — indistinguishable by construction) or
    ``"vectorized"`` for the column-major bulk loop.  The mode is
    advisory metadata: schedule-equivalence comparisons exclude it, and
    the JSONL record omits it when empty so per-node traces are
    byte-identical to pre-vectorization ones.

    ``model`` names the communication model the round ran under —
    ``""`` for the default CONGEST model (omitted from the JSONL record,
    keeping pre-model traces byte-identical), else the model name
    (``"congest-clique"``, ``"local"``).
    """

    kind: ClassVar[str] = ROUND

    round_no: int = _renamed("round")
    messages: int
    bits: int
    mode: str = _optional()
    model: str = _optional()
    span: str = ""


@_event
@dataclass(frozen=True)
class DeliverEvent:
    """One message delivered to a node at the start of a round."""

    kind: ClassVar[str] = DELIVER

    round_no: int = _renamed("round")
    src: int
    dst: int
    bits: int
    value: Any = None
    span: str = ""


@_event
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    ``fault`` names the fault kind (``drop``, ``corrupt``, ``delay``,
    ``crash``, ``recover``); node-level faults set ``src == dst``.
    """

    kind: ClassVar[str] = FAULT

    fault: str
    round_no: int = _renamed("round")
    src: int
    dst: int
    bits: int = 0
    value: Any = None
    span: str = ""


@_event
@dataclass(frozen=True)
class QueryBatchEvent:
    """One metered application of the parallel oracle (Definition 1)."""

    kind: ClassVar[str] = QUERY_BATCH

    size: int
    label: str = ""
    span: str = ""


@_event
@dataclass(frozen=True)
class ChargeEvent:
    """One phase charge on a :class:`~repro.core.cost.RoundLedger`.

    ``model`` tags the communication model whose rounds were charged —
    ``""`` for the default CONGEST model (omitted from the JSONL record)
    so pre-model trace streams stay byte-identical.
    """

    kind: ClassVar[str] = CHARGE

    phase: str
    rounds: int
    model: str = _optional()
    span: str = ""


@_event
@dataclass(frozen=True)
class SpanEvent:
    """Begin or end of a recorder span.

    ``span`` is the full path of the span itself (including ``name``), so
    a stream of span events reconstructs the phase tree on its own.
    """

    kind: ClassVar[str] = SPAN

    name: str
    phase: str  # "begin" | "end"
    span: str = ""


@_event
@dataclass(frozen=True)
class CoalesceEvent:
    """One scheduler coalescing action (:mod:`repro.sched`).

    ``memo="miss"`` marks a physical coalesced batch — ``size`` queries
    from ``submissions`` caller submissions across ``callers`` distinct
    callers, executed for ``rounds`` network rounds.  ``memo="hit"``
    marks a submission answered from the content-addressed result memo
    (``rounds == 0``, ``submissions == callers == 1``).
    """

    kind: ClassVar[str] = COALESCE

    size: int
    submissions: int
    callers: int
    rounds: int
    memo: str = "miss"  # "hit" | "miss" | "evict" | "invalidate"
    span: str = ""


@_event
@dataclass(frozen=True)
class ServeRequestEvent:
    """One request's life-cycle edge inside the serving daemon.

    ``status`` is one of ``"accepted"`` (admitted to the tenant queue),
    ``"rejected"`` (quota exceeded or queue full — backpressure),
    ``"completed"`` (values delivered; ``wait_ms`` is submit-to-result
    latency) or ``"abandoned"`` (daemon drained before execution).
    """

    kind: ClassVar[str] = SERVE_REQUEST

    tenant: str
    queries: int
    status: str
    wait_ms: float = 0.0
    span: str = ""


@_event
@dataclass(frozen=True)
class ServeBatchEvent:
    """One physical batch stepped to completion by a daemon lane."""

    kind: ClassVar[str] = SERVE_BATCH

    lane: str
    size: int
    tenants: int
    rounds: int
    span: str = ""


@_event
@dataclass(frozen=True)
class ServeDrainEvent:
    """The daemon's shutdown handshake.

    ``reason`` names the trigger (``"signal"``, ``"close"``); ``flushed``
    counts requests completed during the drain window and ``abandoned``
    those cancelled because their tenant queue never emptied.
    """

    kind: ClassVar[str] = SERVE_DRAIN

    reason: str
    flushed: int
    abandoned: int
    span: str = ""


@_event
@dataclass(frozen=True)
class ScenarioEvent:
    """One wall-clock pricing of a run under a scenario's link model.

    ``scenario`` names the declared :class:`~repro.scenarios.Scenario`,
    ``link`` the :class:`~repro.core.cost.LinkCostModel` the rounds were
    priced on, ``rounds`` the round count being re-denominated, and
    ``wall_clock_us`` the resulting microseconds.  The event is emitted
    *in addition to* the underlying round/charge stream — pricing is an
    annotation, never a replacement, so scenario-free traces are
    byte-identical to pre-scenario ones.
    """

    kind: ClassVar[str] = SCENARIO

    scenario: str
    link: str
    rounds: int
    wall_clock_us: float
    span: str = ""


@_event
@dataclass(frozen=True)
class SketchEvent:
    """One amplitude-sketch operation or sketch-lane memo edge.

    ``sketch`` names the sketch (lane), ``op`` the operation kind
    (``insert`` / ``query`` / ``compose``), ``count`` the payload width
    (items inserted or queried; for ``compose``, the absorbed sketch's
    insert count; for ``memo="invalidate"``, the memo entries dropped).
    ``memo`` is ``""`` for a physical state operation, ``"hit"`` for a
    query served from the lane memo without touching the state, or
    ``"invalidate"`` for the write-path protocol dropping stale entries.
    The JSONL record omits ``memo`` when empty, keeping the common
    physical-op records minimal.
    """

    kind: ClassVar[str] = SKETCH

    sketch: str
    op: str
    count: int
    memo: str = _optional()  # "" | "hit" | "invalidate"
    span: str = ""


def _jsonable(value: Any) -> Any:
    """Coerce an arbitrary payload into a JSON-serializable shape."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


#: Every declared event kind, in declaration order.
EVENT_KINDS = tuple(_CLASSES)


def to_json(event: Any) -> Dict[str, Any]:
    """The stable ``repro-trace/1`` JSONL record for one event.

    ``type`` first, then the required fields in declaration order
    (``span`` last among them), then each optional field that differs
    from its default; ``Any``-typed payloads go through
    :func:`_jsonable`.
    """
    layout = _LAYOUT.get(event.kind)
    if layout is None:
        raise ValueError(f"unknown event kind {event.kind!r}")
    record: Dict[str, Any] = {"type": event.kind}
    for f in layout:
        value = getattr(event, f.attr)
        if f.optional and value == f.default:
            continue
        record[f.key] = _jsonable(value) if f.type is Any else value
    return record
