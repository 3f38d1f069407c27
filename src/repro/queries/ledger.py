"""Query accounting for (b, p)-parallel-query algorithms (Definition 1).

A :class:`QueryLedger` meters every use of the input oracle.  One *batch*
is one application of O^{⊗p}: up to ``p`` simultaneous queries.  The
ledger records each batch so benchmarks can verify the paper's (b, p)
bounds — b is ``ledger.batches`` — and so the CONGEST framework can charge
network rounds per batch.

Each recorded batch is also emitted as a ``query_batch`` event on the
observability spine (:mod:`repro.obs`), so a single event stream carries
query accounting next to engine rounds and ledger charges.  The ledger's
own records and semantics (including :class:`ParallelismViolation`) are
unchanged; emission happens only after a batch passes validation.

A ledger lives as long as its caller — for a serving daemon, its whole
uptime — so it keeps a running ``total_queries`` and stores one shared
:class:`BatchRecord` per distinct ``(size, label)``: each metered batch
costs one list slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.recorder import Recorder, current_recorder


class ParallelismViolation(ValueError):
    """An algorithm put more than p queries in one batch."""

    def __init__(self, size: int, parallelism: int):
        self.size = size
        self.parallelism = parallelism
        super().__init__(
            f"batch of {size} queries exceeds parallelism p = {parallelism}"
        )


@dataclass(frozen=True)
class BatchRecord:
    """One recorded oracle batch (immutable, so a ledger shares equal ones)."""

    size: int
    label: str = ""


class QueryLedger:
    """Meters batches of parallel queries against a parallelism cap p.

    Args:
        parallelism: the cap p on simultaneous queries per batch.
        recorder: observability bus to emit ``query_batch`` events on;
            ``None`` (default) resolves the ambient recorder at record
            time, so ledgers built before a recorder is installed still
            report into it.
    """

    def __init__(self, parallelism: int, recorder: Optional[Recorder] = None):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self.records: List[BatchRecord] = []
        self.recorder = recorder
        self._total_queries = 0
        self._shared: Dict[Tuple[int, str], BatchRecord] = {}

    def record(self, size: int, label: str = "") -> None:
        if size < 1:
            raise ValueError("a batch must contain at least one query")
        if size > self.parallelism:
            raise ParallelismViolation(size, self.parallelism)
        record = self._shared.get((size, label))
        if record is None:
            record = self._shared[size, label] = BatchRecord(size, label)
        self.records.append(record)
        self._total_queries += size
        rec = self.recorder if self.recorder is not None else current_recorder()
        if rec.active:
            rec.query_batch(size, label)

    @property
    def batches(self) -> int:
        """b — the number of O^{⊗p} applications so far."""
        return len(self.records)

    @property
    def total_queries(self) -> int:
        return self._total_queries

    def batches_labeled(self, label: str) -> int:
        return sum(1 for r in self.records if r.label == label)

    def signature(self) -> tuple:
        """The hashable ``((size, label), ...)`` record trace.

        Two ledgers with equal signatures metered byte-for-byte the same
        batch sequence.  The :mod:`repro.sched` equivalence verifier pins
        coalesced-vs-serial runs on this: a caller's ledger under the
        scheduler must carry the *exact* signature its private serial
        oracle would have produced.
        """
        return tuple((r.size, r.label) for r in self.records)

    def reset(self) -> None:
        self.records.clear()
        self._total_queries = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryLedger(p={self.parallelism}, b={self.batches}, "
            f"queries={self.total_queries})"
        )
