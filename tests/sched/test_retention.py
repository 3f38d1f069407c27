"""Ticket lifetime and per-request retention of the schedulers.

A long-lived scheduler (one serving daemon lane) must not grow with the
number of requests it has served.  A completed submission lives exactly
as long as its caller holds the ``Ticket``; the only per-request state
left behind is one list slot in the caller's ``QueryLedger`` plus a
share of the per-batch round charges.
"""

import gc
import random
import tracemalloc

import pytest

from repro.apps.sketches import AmplitudeSketch, SketchSpec
from repro.congest import topologies
from repro.core.framework import DistributedInput, FrameworkConfig
from repro.core.operation import Operation
from repro.core.semigroup import sum_semigroup
from repro.sched import CoalescingScheduler, SketchScheduler
from repro.sched.scheduler import Ticket

K = 64
#: Retained bytes allowed per served request.  A scheduler that keeps
#: every submission alive retains about 700 B per request.
MAX_BYTES_PER_REQUEST = 64


def retained_bytes_per_request(serve, requests):
    """tracemalloc-retained bytes per request across ``serve(requests)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        serve(requests)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / requests


@pytest.fixture
def network():
    return topologies.grid(4, 4)


@pytest.fixture
def config(network):
    vectors = {
        v: [(v * 7 + j) % 5 for j in range(K)] for v in network.nodes()
    }
    di = DistributedInput(vectors, sum_semigroup(5 * network.n))
    return FrameworkConfig(
        parallelism=8, dist_input=di, seed=2, leader=0, mode="formula"
    )


def same_ticket(ticket):
    """A fresh Ticket naming the same submission (no reference to it)."""
    return Ticket(ticket.id, ticket.caller, ticket.size)


class TestRetention:
    def test_scheduler_keeps_no_per_request_history(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        rng = random.Random(0)
        ops = [
            Operation.query(
                f"c{i % 4}", rng.sample(range(K), rng.randint(1, 4))
            )
            for i in range(64)
        ]

        def serve(n):
            for i in range(n):
                sched.submit(ops[i % len(ops)])  # ticket dropped at once
            sched.drain()

        serve(2_000)  # warm up: accounts, interned charges, list growth
        per_request = retained_bytes_per_request(serve, 20_000)
        assert per_request <= MAX_BYTES_PER_REQUEST, per_request


class TestTicketLifetime:
    def test_completed_submission_dies_with_its_ticket(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        ticket = sched.submit(Operation.query("a", [1, 2]))
        sched.drain()
        alias = same_ticket(ticket)
        assert sched.done(alias)
        assert sched.result(alias) == sched.result(ticket)
        del ticket
        with pytest.raises(KeyError):
            sched.done(alias)
        with pytest.raises(KeyError):
            sched.result(alias)

    def test_pending_submission_outlives_a_dropped_ticket(
        self, network, config
    ):
        sched = CoalescingScheduler(network, config, memo=False)
        alias = same_ticket(sched.submit(Operation.query("a", [3])))
        assert not sched.done(alias)  # still queued, so still known
        assert sched.pending_queries == 1
        sched.drain()
        assert sched.pending_queries == 0
        assert sched.account("a").queries.total_queries == 1
        with pytest.raises(KeyError):  # executed, and nobody holds it
            sched.done(alias)

    def test_memo_hit_submission_dies_with_its_ticket(self, network, config):
        sched = CoalescingScheduler(network, config)
        first = sched.result(sched.submit(Operation.query("a", [4, 5])))
        ticket = sched.submit(Operation.query("b", [5, 4]))
        assert sched.done(ticket)
        assert sched.result(ticket) == list(reversed(first))
        alias = same_ticket(ticket)
        del ticket
        with pytest.raises(KeyError):
            sched.result(alias)

    def test_ticket_equality_ignores_the_submission(self, network, config):
        sched = CoalescingScheduler(network, config, memo=False)
        ticket = sched.submit(Operation.query("a", [1]))
        assert ticket == same_ticket(ticket)
        assert hash(ticket) == hash(same_ticket(ticket))
        assert "_submission" not in repr(ticket)


class TestSketchTicketLifetime:
    @staticmethod
    def make_sched():
        sketch = AmplitudeSketch(
            SketchSpec(family="qcount", m=16, backend="emulated"),
            name="lane0",
        )
        return SketchScheduler(sketch, parallelism=8)

    def test_completed_operation_dies_with_its_ticket(self):
        sched = self.make_sched()
        ticket = sched.submit(Operation.insert("a", ["x"]))
        assert sched.result(ticket) == sched.result(ticket) == [True]
        alias = same_ticket(ticket)
        assert sched.done(alias)
        del ticket
        with pytest.raises(KeyError):
            sched.result(alias)

    def test_pending_operation_outlives_a_dropped_ticket(self):
        sched = self.make_sched()
        alias = same_ticket(sched.submit(Operation.insert("a", ["x"])))
        query = sched.submit(Operation.sketch_query("a", ["x"]))
        assert not sched.done(alias)
        assert sched.pending_inserts == 1
        # FIFO: the unheld insert still executes before the query.
        assert sched.result(query) == [pytest.approx(1.0)]
        assert sched.pending_inserts == 0
        with pytest.raises(KeyError):
            sched.done(alias)
