"""The repo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload offline_sweep --seed 1 \\
        --seconds 35 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
it runs the workload for half the time untraced and half with spans
around repro's public entry points, prints the per-layer metrics and the
per-layer self-time table, and writes the spans to ``.perfbench_out/``.  The last
line of standard output is always the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and their bounds are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _load_repro() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {src}; run from a full "
            f"checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def _setup(workload, inp, tracer=None):
    from perfbench.trace import NO_OP

    if tracer is not None:
        tracer.current_op = NO_OP
    t0 = time.perf_counter()
    state = workload.setup(inp)
    return state, time.perf_counter() - t0


def _measure(workload, inp, seconds, repeats):
    """Untraced run between timed set-ups; returns the median set-up time.

    ``repeats = (before, after)``: the run uses the last set-up made
    before it, and more are made after it, so that set-up time is
    sampled at both ends of the run rather than in one burst.
    """
    before, after = repeats
    times = []
    state = None
    for _ in range(before):
        state = None  # drop the previous set-up before building the next
        state, took = _setup(workload, inp)
        times.append(took)
    outcome = workload.run(state, inp, seconds, None)
    outcome.verify()
    state = None
    for _ in range(after):
        _, took = _setup(workload, inp)
        times.append(took)
    return outcome, statistics.median(times), len(times)


def end_to_end(outcome, setup_s, setups):
    from perfbench.stats import peak_rss_mb, percentile

    lat = outcome.latencies_ms
    n = len(lat)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {setups} set-ups"),
        "ops_per_s": (outcome.completed / outcome.elapsed_s, "1/s",
                      f"{outcome.completed} ops in {outcome.elapsed_s:.2f} s"),
        "latency_p50_ms": (percentile(lat, 50), "ms", f"{n} samples"),
        "latency_p90_ms": (percentile(lat, 90), "ms", f"{n} samples"),
        "rounds_per_query": (outcome.rounds / outcome.queries, "rounds/query",
                             f"{outcome.rounds} rounds / "
                             f"{outcome.queries} queries"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "1 sample (whole process)"),
        "ok_ratio": ((outcome.attempted - outcome.failed) / outcome.attempted,
                     "ratio", f"{outcome.failed} failed of "
                     f"{outcome.attempted} attempted"),
    }
    return metrics


def _print_table(title, metrics):
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")


def _result(outcome, metrics):
    return {
        "correct": outcome.wrong == 0 and outcome.final_checks_ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_repro()
    from perfbench.layers import per_layer, self_time_table
    from perfbench.trace import Instrumentation, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    inp = workload.inputs(args.seed, args.seconds)
    header = (f"workload {workload.name} ({workload.load}) seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")

    if not args.trace:
        outcome, setup_s, setups = _measure(
            workload, inp, args.seconds, workload.setup_repeats)
        metrics = end_to_end(outcome, setup_s, setups)
        _print_table(header, metrics)
        result = _result(outcome, metrics)
    else:
        # Half the time untraced, half traced, each on a fresh set-up.
        half = args.seconds / 2.0
        untraced, _, _ = _measure(workload, inp, half, (1, 0))
        tracer = Tracer()
        instrumentation = Instrumentation(tracer).install()
        try:
            state, _ = _setup(workload, inp, tracer)
            window = time.perf_counter_ns()
            traced = workload.run(state, inp, half, tracer)
            window = (window, time.perf_counter_ns())
        finally:
            instrumentation.remove()
        traced.verify()
        metrics = per_layer(tracer, traced, untraced, window)
        table = self_time_table(tracer, window)
        _print_table(header, metrics)
        print("  self time by layer (traced run, setup included):")
        for layer, (self_s, share) in table.items():
            print(f"    {layer:30s} {self_s:10.4f} s {share:7.1%}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{workload.name}-seed{args.seed}"
        tracer.save(str(stem) + ".spans.npz")
        with open(str(stem) + ".layers.json", "w") as fh:
            json.dump({"self_time": table,
                       "metrics": {k: v[0] for k, v in metrics.items()}},
                      fh, indent=1)
        result = _result(traced, metrics)
        result["correct"] = result["correct"] and (
            untraced.wrong == 0 and untraced.final_checks_ok)
        result["attempted"] += untraced.attempted
        result["failed"] += untraced.failed
        outcome = traced
    for error in outcome.details.get("errors", [])[:10]:
        sys.stderr.write(f"perfbench: failed operation: {error}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
