"""The event bus: :class:`Recorder`, spans, and the ambient recorder.

A :class:`Recorder` fans typed events out to pluggable sinks and stamps
each event with the current span path.  The module-level
:data:`NULL_RECORDER` is the disabled bus: emitters guard their hot paths
on ``recorder.active`` (a plain class attribute), so the instrumentation
cost with recording off is one attribute load and branch — within the
< 5 % overhead budget enforced by ``python -m repro bench`` (workload
``obs_overhead``).

The *ambient* recorder makes the spine reach code that predates it:
:func:`install` pushes a recorder for the duration of a ``with`` block and
every Engine / ledger / framework run constructed inside resolves it via
:func:`current_recorder` (unless handed an explicit one).  This is how
``python -m repro trace`` instruments experiments whose ``run()`` signature
never mentions observability.  The ambient stack is process-global and not
thread-safe; the engine itself is single-threaded.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterable, List, Optional

from .events import SPAN, SpanEvent, _CLASSES


class Recorder:
    """Dispatches typed events to sinks, tracking a span (phase) stack.

    Besides :meth:`span`, there is one emit method per event kind, named
    after the kind (``round``, ``charge``, ``serve_request``, ...).  It
    takes the event's fields except ``span``, positionally or by keyword,
    and stamps the current span path.
    """

    #: Emitters skip event construction entirely when this is False.
    active = True

    def __init__(self, sinks: Optional[Iterable] = None):
        self.sinks: List = list(sinks) if sinks is not None else []
        self._span_stack: List[str] = []
        self._span_path = ""

    # -- sink management ------------------------------------------------

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def close(self) -> None:
        """Close every sink that holds a resource (e.g. JSONL files)."""
        for sink in self.sinks:
            sink.close()

    def fork(self, *extra_sinks) -> "Recorder":
        """A recorder feeding this one's sinks plus ``extra_sinks``.

        The fork starts at this recorder's current span path, so events
        emitted through it attribute to the phase that was open when the
        fork was made.  An inactive recorder contributes no sinks.
        """
        sinks = list(self.sinks) if self.active else []
        sinks.extend(extra_sinks)
        fork = Recorder(sinks)
        fork._span_stack = list(self._span_stack)
        fork._span_path = self._span_path
        return fork

    # -- emission -------------------------------------------------------

    def emit(self, event) -> None:
        for sink in self.sinks:
            sink.handle(event)

    # -- spans ----------------------------------------------------------

    @property
    def span_path(self) -> str:
        """The ``/``-joined path of currently open spans ("" at top level)."""
        return self._span_path

    @contextmanager
    def span(self, name: str):
        """Open a named phase; events emitted inside carry its path."""
        self._span_stack.append(name)
        self._span_path = "/".join(self._span_stack)
        self.emit(SpanEvent(name, "begin", self._span_path))
        try:
            yield self
        finally:
            self.emit(SpanEvent(name, "end", self._span_path))
            self._span_stack.pop()
            self._span_path = "/".join(self._span_stack)


class NullRecorder(Recorder):
    """The disabled bus: every operation is a no-op.

    Emitters should still guard on :attr:`active` so the disabled path
    never constructs event objects; the no-op emit methods are the
    backstop for call sites that don't.
    """

    active = False

    def __init__(self):
        super().__init__()

    def add_sink(self, sink) -> None:  # pragma: no cover - defensive
        raise ValueError("cannot attach sinks to the null recorder")

    def emit(self, event) -> None:
        pass

    def span(self, name: str):
        return nullcontext(self)


def _emitter(cls: type, name: str):
    """The :class:`Recorder` method that emits one ``cls`` event."""

    def emit(self, *fields, **named) -> None:
        self.emit(cls(*fields, span=self._span_path, **named))

    emit.__name__ = name
    emit.__qualname__ = f"Recorder.{name}"
    emit.__doc__ = f"Emit one :class:`{cls.__name__}` at the current span."
    return emit


def _ignore(self, *fields, **named) -> None:
    """Drop the event unconstructed (the recorder is disabled)."""


def _bind_emitters() -> None:
    """Give both recorders one method per event kind but ``span``."""
    for kind, cls in _CLASSES.items():
        if kind != SPAN:
            name = kind.replace(".", "_")
            setattr(Recorder, name, _emitter(cls, name))
            setattr(NullRecorder, name, _ignore)


_bind_emitters()


#: The process-wide disabled recorder (shared; stateless).
NULL_RECORDER = NullRecorder()

#: Ambient recorder stack; the top entry is what unparameterized
#: constructors pick up.  Bottom entry is the null recorder, so recording
#: is off unless something :func:`install`\ s a live recorder.
_AMBIENT: List[Recorder] = [NULL_RECORDER]


def current_recorder() -> Recorder:
    """The recorder new engines/ledgers adopt when none is passed."""
    return _AMBIENT[-1]


@contextmanager
def install(recorder: Recorder):
    """Make ``recorder`` ambient for the duration of the ``with`` block."""
    _AMBIENT.append(recorder)
    try:
        yield recorder
    finally:
        _AMBIENT.pop()
