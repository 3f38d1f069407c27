"""The benchmark workloads.

Each workload has three stages:

* ``inputs(seed, seconds)`` draws every input from the seed with numpy,
  before anything is timed.  Graphs are fixed per workload; the seed
  picks the per-node vectors, the algorithms' randomness, the request
  streams and the arrival times.
* ``setup(inputs)`` builds networks, runs ``prepare_network`` and
  registers profiles, sketches and the service.  It is timed as
  ``setup_s`` and repeated, so the process-wide setup cache is emptied
  first each time.
* ``run(state, inputs, seconds, tracer)`` drives the public entry points
  for ``seconds`` and returns an :class:`Outcome`.  Its ``verify()``
  reads the program's counters and checks answers against ground truth
  afterwards, outside the measured interval and with spans off.

Load is generated from this one process: offline workloads call
``run_framework`` back to back; serving workloads run client coroutines
on one asyncio loop next to the daemon.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from .trace import NO_OP, Tracer


@dataclass
class Outcome:
    """What one measured run produced."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    errors: int = 0      # raised, refused or never answered
    wrong: int = 0       # answered, but not what ground truth says
    elapsed_s: float = 0.0
    rounds: int = 0      # charged CONGEST rounds
    queries: int = 0     # oracle queries, a sketch item counting as one
    lateness_ms: List[float] = field(default_factory=list)
    final_checks_ok: bool = True
    details: Dict[str, Any] = field(default_factory=dict)
    #: Reads the program's counters and checks the answers; called after
    #: the run, once spans are off, so none of it is traced.
    verify: Callable[[], None] = lambda: None

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


# ---------------------------------------------------------------------------
# Offline: run_framework called back to back
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    """One run_framework call shape: a network, a config, an algorithm."""

    label: str
    network: Any
    config: Any
    algorithm: Callable
    check: Callable[[Any], bool]


def _run_offline(tasks: Sequence[_Task], seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> Outcome:
    """Call ``run_framework`` on the tasks in turn until ``seconds`` pass.

    Call ``i`` hands its algorithm a generator seeded with ``(seed, i)``
    instead of the config's, so a run averages over many search paths
    rather than repeating one per task; the config seed still picks the
    setup and the engine's message order.
    """
    from repro.core.framework import run_framework
    from .trace import span_fn

    if tracer is not None:
        tasks = [
            _Task(t.label, t.network, t.config,
                  span_fn(tracer, "queries", t.algorithm), t.check)
            for t in tasks
        ]
    out = Outcome()
    runs: List[Tuple[_Task, Any]] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        task = tasks[i % len(tasks)]
        rng = np.random.default_rng((seed, i))
        i += 1
        out.attempted += 1
        span = None
        if tracer is not None:
            tracer.current_op = i
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            run = run_framework(
                task.network,
                lambda oracle, _rng: task.algorithm(oracle, rng),
                config=task.config)
        except Exception as exc:  # counted, reported, and the run goes on
            out.errors += 1
            out.details.setdefault("errors", []).append(
                f"{task.label}: {exc!r}")
            continue
        finally:
            if span is not None:
                tracer.close(span)
                tracer.current_op = NO_OP
        out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        runs.append((task, run))
    out.elapsed_s = time.perf_counter() - start
    out.completed = len(runs)

    def verify() -> None:
        for task, run in runs:
            out.rounds += run.rounds.total
            out.queries += run.query_ledger.total_queries
            if not task.check(run.result):
                out.wrong += 1

    out.verify = verify
    return out


def _sum_inputs(rng: np.random.Generator, n: int, k: int, marked: int = 0):
    """Per-node 0/1 vectors; the aggregate is a column sum (Theorem 8
    with the sum semigroup).  0/1 entries keep the Python lists small.

    ``marked`` random columns are dense (ones with probability 0.8, the
    rest 0.2), so a search for totals ``>= threshold`` has exactly that
    many solutions on every seed and its batch count follows one law.
    Returns ``(matrix, column sums, threshold)``.
    """
    density = np.full(k, 0.2)
    chosen = rng.choice(k, size=marked, replace=False)
    density[chosen] = 0.8
    matrix = (rng.random((n, k)) < density).astype(np.int64)
    truth = matrix.sum(axis=0)
    threshold = n // 2
    if marked and not (
        truth[chosen].min() >= threshold
        and np.delete(truth, chosen).max() < threshold
    ):
        raise ValueError("planted columns overlap the rest; widen n")
    return matrix, truth, threshold


def _offline_tasks(graph, network, trials: Sequence[int]) -> List[_Task]:
    """One task per (trial seed, algorithm, input set) of one graph."""
    from repro.core.framework import DistributedInput, FrameworkConfig
    from repro.core.semigroup import sum_semigroup
    from repro.queries.grover import find_one
    from repro.queries.minimum import find_minimum

    tasks: List[_Task] = []
    for seed in trials:
        for algo in graph["algorithms"]:
            for inp in graph["inputs"]:
                truth = inp["truth"]
                config = FrameworkConfig(
                    parallelism=network.diameter,  # p = D, as in the paper
                    dist_input=DistributedInput(
                        inp["vectors"], sum_semigroup(network.n)),
                    mode=graph["mode"], leader=graph["leader"], seed=seed,
                )
                label = (f"{graph['name']}/{graph['mode']}/k={len(truth)}/"
                         f"{algo}/s{seed}")
                if algo == "min":
                    tasks.append(_Task(
                        label, network, config, find_minimum,
                        checks.offline_value_check(truth),
                    ))
                    continue
                thr = inp["threshold"]

                def grover(oracle, rng, thr=thr):
                    return find_one(oracle, lambda v: v >= thr, rng)

                tasks.append(_Task(
                    label, network, config, grover,
                    checks.search_check(truth, lambda v, thr=thr: v >= thr),
                ))
    return tasks


#: Graph instances are fixed; the seed varies the inputs and the
#: algorithms' randomness, not the topology.
GRAPH_SEED = 2022


class OfflineSweep:
    """Back-to-back ``run_framework`` calls, as the experiments make them.

    Two halves, interleaved call by call so that any prefix of the cycle
    keeps the mix:

    * **formula mode at n≈10³** — Lemma 3 minimum finding and Grover
      search on three ~1000-node graphs from low to high diameter, with k
      at nine values spaced evenly in log scale from 256 to 1024 (three
      per graph, so call times spread smoothly).  Oracle construction
      folds n×k values in Python on every call and should be nearly all
      of this half's work.  The leader is designated, as the experiments
      do.
    * **engine mode at n = 48–96** on the default (``active``) schedule —
      Grover search on four random-regular (low diameter) and four
      diameter-controlled (high diameter) graphs.  Every batch runs real
      downcast/convergecast/uncompute node programs, which is what each
      ``repro verify`` experiment pays; the per-round engine loop should
      dominate.  Engine-mode minimum finding takes 10–20 batches (about
      a second) and is left out.

    Every input set runs under a few config seeds (trials), each with its
    own cached setup phase; p = D as in the paper's applications.  The
    serving layers do no work here.
    """

    name = "offline_sweep"
    load = "calls back to back, one at a time"
    setup_repeats = (1, 1)  # set-ups before and after the measured run

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        from repro.congest import topologies

        rng = np.random.default_rng(seed)
        graphs: List[Dict[str, Any]] = []
        formula = [
            ("random_regular_1000", lambda: topologies.random_regular(
                1000, 4, seed=GRAPH_SEED)),
            ("diameter_1000_30", lambda: topologies.diameter_controlled(
                1000, 30, seed=GRAPH_SEED)),
            ("diameter_1000_90", lambda: topologies.diameter_controlled(
                1000, 90, seed=GRAPH_SEED)),
        ]
        ks = np.geomspace(256, 1024, 9).round().astype(int).tolist()
        for g, (name, build) in enumerate(formula):
            graphs.append({
                "name": name, "build": build, "mode": "formula", "leader": 0,
                "algorithms": ("min", "grover"), "trials": (0, 1),
                "inputs": [_input_set(rng, 1000, k)
                           for k in ks[g::len(formula)]],
            })
        for n, diameter in ((48, 8), (64, 11), (80, 14), (96, 17)):
            for name, build in (
                (f"random_regular_{n}", lambda n=n: (
                    topologies.random_regular(n, 4, seed=GRAPH_SEED))),
                (f"diameter_{n}_{diameter}", lambda n=n, d=diameter: (
                    topologies.diameter_controlled(n, d, seed=GRAPH_SEED))),
            ):
                graphs.append({
                    "name": name, "build": build, "mode": "engine",
                    "leader": None, "algorithms": ("grover",),
                    "trials": (0, 1, 2, 3),
                    "inputs": [_input_set(rng, n, 64)],
                })
        return {"seed": seed, "graphs": graphs}

    def setup(self, inp: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.framework import invalidate_prepared, prepare_network

        invalidate_prepared()
        halves: Dict[str, List[_Task]] = {"formula": [], "engine": []}
        for graph in inp["graphs"]:
            network = graph["build"]()
            network.diameter  # noqa: B018 — cached metric the cost model reads
            trials = [inp["seed"] * 10 + t for t in graph["trials"]]
            for s in trials:
                prepare_network(network, seed=s, leader=graph["leader"])
            halves[graph["mode"]] += _offline_tasks(graph, network, trials)
        tasks = [task for pair in itertools.zip_longest(
            halves["formula"], halves["engine"]) for task in pair if task]
        return {"tasks": tasks}

    def run(self, state, inp, seconds: float,
            tracer: Optional[Tracer]) -> Outcome:
        return _run_offline(state["tasks"], inp["seed"], seconds, tracer)


def _input_set(rng: np.random.Generator, n: int, k: int) -> Dict[str, Any]:
    matrix, truth, threshold = _sum_inputs(rng, n, k, 8)
    return {"vectors": {v: matrix[v].tolist() for v in range(n)},
            "truth": truth, "threshold": threshold}


# ---------------------------------------------------------------------------
# Serving: QueryService on one asyncio loop
# ---------------------------------------------------------------------------

#: Index-domain size of the served oracle (both serving workloads).
SERVE_K = 64


def _read_profile(seed: int):
    """A formula-mode read profile over a 64-node grid, k = 64."""
    from repro.congest import topologies
    from repro.core.framework import DistributedInput, FrameworkConfig
    from repro.core.semigroup import sum_semigroup

    rng = np.random.default_rng(seed)
    matrix, truth, _ = _sum_inputs(rng, 64, SERVE_K)
    vectors = {v: matrix[v].tolist() for v in range(64)}

    def build():
        network = topologies.grid(8, 8)
        di = DistributedInput(vectors, sum_semigroup(network.n))
        return network, FrameworkConfig(
            parallelism=16, dist_input=di, seed=seed, mode="formula")

    return build, truth


def _index_sets(rng: np.random.Generator, count: int):
    """``count`` reads of 1–4 indices: a size array and an index matrix
    (row ``i`` holds read ``i`` in its first ``sizes[i]`` columns)."""
    return rng.integers(1, 5, size=count), rng.integers(
        0, SERVE_K, size=(count, 4))


class ServeReads:
    """Closed loop: 32 client coroutines over 4 tenants, one read each
    in flight, 1–4 indices over k = 64, formula-mode profile, default
    memo.  A parallel-query algorithm waits for each batch before it
    picks the next, so a closed loop is the faithful shape.  Runs long
    enough for per-batch history cost (ledger re-sums) to show.
    """

    name = "serve_reads"
    setup_repeats = (5, 5)
    clients = 32
    tenants = 4
    load = (f"closed loop, {clients} clients over {tenants} tenants, "
            f"one read each in flight")

    def inputs(self, seed, seconds):
        rng = np.random.default_rng(seed)
        build, truth = _read_profile(int(rng.integers(2**31)))
        # About twice what a client completes per second here; a client
        # that runs out starts its list again.
        per_client = max(256, int(seconds * 300))
        streams = [_index_sets(rng, per_client) for _ in range(self.clients)]
        return {"build": build, "truth": truth.tolist(), "streams": streams}

    def setup(self, inp):
        from repro.core.framework import invalidate_prepared
        from repro.serve.daemon import QueryService
        from repro.serve.tenants import TenantQuota

        invalidate_prepared()
        network, config = inp["build"]()
        service = QueryService(tenants=[
            TenantQuota(f"tenant{t}") for t in range(self.tenants)])
        service.add_profile(network, config)
        return {"service": service}

    def run(self, state, inp, seconds, tracer):
        return asyncio.run(self._run(state["service"], inp, seconds, tracer))

    async def _run(self, service, inp, seconds, tracer):
        from repro.core.operation import Operation
        from repro.serve.daemon import ServiceClosed
        from repro.serve.tenants import AdmissionError

        out = Outcome()
        truth = inp["truth"]
        loop_start = time.perf_counter()
        deadline = loop_start + seconds

        async def client(c: int) -> None:
            tenant = f"tenant{c % self.tenants}"
            sizes, picks = inp["streams"][c]
            j = 0
            while time.perf_counter() < deadline:
                row = j % len(sizes)
                indices = tuple(picks[row, :sizes[row]].tolist())
                j += 1
                out.attempted += 1
                op_id = out.attempted
                t0 = time.perf_counter()
                try:
                    result = await service.submit(
                        Operation.query(tenant, indices))
                except (AdmissionError, ServiceClosed) as exc:
                    out.errors += 1
                    out.details.setdefault("errors", []).append(repr(exc))
                    continue
                t1 = time.perf_counter()
                out.latencies_ms.append((t1 - t0) * 1e3)
                if tracer is not None:
                    tracer.record("bench.request", int(t0 * 1e9),
                                  int(t1 * 1e9), op_id)
                # Checked here, against sums numpy took from the inputs, so
                # the run keeps no answers in memory.
                out.completed += 1
                out.queries += len(indices)
                if not checks.read_ok(indices, result.values, truth):
                    out.wrong += 1

        await asyncio.gather(*(client(c) for c in range(self.clients)))
        out.elapsed_s = time.perf_counter() - loop_start
        await service.drain()

        def verify() -> None:
            lane = service.pool.acquire("default")
            out.rounds = lane.scheduler.rounds.total
            out.details["report"] = service.report()

        out.verify = verify
        return out


class SketchWrites:
    """Open loop: Poisson arrivals at 2000 ops/s against a pinned qcount
    lane (m = 64, emulated backend): half inserts, and of the reads
    four in five are sketch queries and one in five is a 1–4-index
    oracle read on a formula-mode profile of the same daemon.  The
    oracle reads make ``rounds_per_query`` defined here (sketch items
    charge no rounds) and put the read path beside the write path on
    one event loop: FIFO order, memo invalidation on every insert and
    the sketch kernels are exercised while reads share the loop.
    """

    name = "sketch_writes"
    setup_repeats = (5, 5)
    rate_hz = 2000.0
    load = f"open loop, Poisson arrivals at {rate_hz:g} ops/s, timed from due"
    insert_share = 0.5
    oracle_read_share = 0.1
    universe = 2048     # sketch items are ints below this
    probes = 256

    def inputs(self, seed, seconds):
        rng = np.random.default_rng(seed)
        build, truth = _read_profile(int(rng.integers(2**31)))
        count = int(self.rate_hz * seconds * 1.2) + 64
        gaps = rng.exponential(1.0 / self.rate_hz, size=count)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        kinds = rng.random(len(due))
        sizes = rng.integers(1, 5, size=len(due))
        items = rng.integers(0, self.universe, size=(len(due), 4))
        picks = rng.integers(0, SERVE_K, size=(len(due), 4))
        ops = []
        for i in range(len(due)):
            if kinds[i] < self.insert_share:
                kind = "insert"
            elif kinds[i] < 1.0 - self.oracle_read_share:
                kind = "sketch_query"
            else:
                kind = "read"
            source = picks if kind == "read" else items
            ops.append((float(due[i]), kind,
                        tuple(int(x) for x in source[i, :sizes[i]])))
        probes = [int(x) for x in rng.choice(self.universe, self.probes,
                                              replace=False)]
        return {"build": build, "truth": truth, "ops": ops,
                "sketch_seed": int(rng.integers(2**31)), "probes": probes}

    def _sketch(self, seed):
        from repro.apps.sketches import QCount

        return QCount(m=64, k=3, seed=seed, backend="emulated")

    def setup(self, inp):
        from repro.core.framework import invalidate_prepared
        from repro.serve.daemon import QueryService
        from repro.serve.tenants import TenantQuota

        invalidate_prepared()
        network, config = inp["build"]()
        service = QueryService(tenants=[
            TenantQuota("writer", max_pending=4096),
            TenantQuota("reader", max_pending=4096),
        ])
        service.add_profile(network, config, name="reads")
        sketch = self._sketch(inp["sketch_seed"])
        service.add_sketch_profile("sketch", sketch)
        return {"service": service, "sketch": sketch}

    def run(self, state, inp, seconds, tracer):
        return asyncio.run(self._run(state, inp, seconds, tracer))

    async def _run(self, state, inp, seconds, tracer):
        from repro.core.operation import Operation
        from repro.serve.tenants import AdmissionError

        service = state["service"]
        ops = [op for op in inp["ops"] if op[0] < seconds]
        out = Outcome()
        answers: Dict[int, List[Any]] = {}
        done_at: Dict[int, float] = {}
        accepted: List[bool] = [False] * len(ops)

        def finished(i: int, future) -> None:
            done_at[i] = time.perf_counter()
            if not future.cancelled() and future.exception() is None:
                answers[i] = future.result().values

        start = time.perf_counter()
        for i, (due, kind, payload) in enumerate(ops):
            wait = start + due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            out.lateness_ms.append(
                (time.perf_counter() - start - due) * 1e3)
            if kind == "insert":
                op, profile = Operation.insert("writer", payload), "sketch"
            elif kind == "sketch_query":
                op = Operation.sketch_query("writer", payload)
                profile = "sketch"
            else:
                op, profile = Operation.query("reader", payload), "reads"
            out.attempted += 1
            try:
                future = service.submit(op, profile=profile)
            except AdmissionError as exc:
                out.errors += 1
                out.details.setdefault("errors", []).append(repr(exc))
                continue
            accepted[i] = True
            future.add_done_callback(lambda f, i=i: finished(i, f))
        await service.drain()
        # Let the done-callbacks of the last futures run.
        await asyncio.sleep(0)
        last = max(done_at.values(), default=time.perf_counter())
        out.elapsed_s = last - start
        for i, at in done_at.items():
            if i in answers:
                due_abs = start + ops[i][0]
                out.latencies_ms.append((at - due_abs) * 1e3)
                if tracer is not None:
                    tracer.record("bench.request", int(due_abs * 1e9),
                                  int(at * 1e9), i)
        out.errors += sum(1 for i, ok in enumerate(accepted)
                          if ok and i not in answers)
        out.completed = len(answers)

        out.queries = sum(len(ops[i][2]) for i in answers)

        def verify() -> None:
            reads = service.pool.acquire("reads")
            out.rounds = reads.scheduler.rounds.total
            out.wrong, out.final_checks_ok = checks.check_sketch_stream(
                ops, accepted, answers, inp["truth"], state["sketch"],
                self._sketch(inp["sketch_seed"]), inp["probes"])
            out.details["report"] = service.report()

        out.verify = verify
        return out


WORKLOADS = {w.name: w for w in (OfflineSweep(), ServeReads(),
                                 SketchWrites())}
