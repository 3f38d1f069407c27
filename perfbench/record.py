"""Write ``perfbench/record.json``: what the benchmark measured, and where.

    python3 perfbench/record.py

For every workload it makes one traced run (per-layer metrics and the
self-time table, checked against the layer predicted to dominate) and
one untraced run on a seed never used while the benchmark was tuned,
each ``run_seconds`` long (from ``BENCHMARK.json``) in its own ``run.py``
process.  The record also carries the environment and the layer ->
end-to-end metric map below.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 1
HELD_OUT_SEED = 9001

#: Layer metrics -> the end-to-end metrics (and workloads) they should move.
LAYER_MAP = {
    "congest.network.fingerprint_* and core.framework.prepare.*":
        "setup_s on all workloads; ops_per_s on offline_sweep, where the "
        "topology fingerprint is recomputed on every run_framework call",
    "core.framework.oracle.* and queries.*":
        "ops_per_s and latency_p50_ms on offline_sweep, through its "
        "formula-mode calls (nothing on serving)",
    "core.framework.batch.* and congest.aggregate.*":
        "ops_per_s on offline_sweep only, through its engine-mode calls",
    "core.cost.*":
        "ops_per_s and latency_p90_ms on serve_reads (and sketch_writes "
        "if its read lane's ledger grows)",
    "sched.scheduler.*":
        "latency and rounds_per_query on serve_reads",
    "sched.memo.*":
        "rounds_per_query and latency on serve_reads; on sketch_writes the "
        "sketch memo only invalidates",
    "sched.sketch.* and apps.sketches.*":
        "latency on sketch_writes only",
    "serve.daemon.*":
        "latency on both serving workloads",
    "bench.loadgen.late_p90_ms and bench.trace_overhead":
        "describe the harness itself",
}

#: The layer(s) whose self time should lead each workload's table.
PREDICTED = {
    "offline_sweep": ["core.framework.oracle", "congest.aggregate"],
    "serve_reads": ["core.cost", "sched.scheduler"],
    "sketch_writes": ["apps.sketches", "sched.sketch"],
}


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}{proc.stdout[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _check(workload: str, table: dict) -> dict:
    """Does the predicted layer set hold more self time than any other?"""
    layers = {k: v[0] for k, v in table.items() if k != "unattributed"}
    predicted = PREDICTED[workload]
    predicted_s = sum(layers.get(name, 0.0) for name in predicted)
    others = {k: v for k, v in layers.items() if k not in predicted}
    top_other = max(others.items(), key=lambda kv: kv[1],
                    default=("none", 0.0))
    return {
        "predicted": predicted,
        "predicted_self_s": round(predicted_s, 4),
        "largest_other": top_other[0],
        "largest_other_self_s": round(top_other[1], 4),
        "unattributed_s": round(table.get("unattributed", (0.0,))[0], 4),
        "holds": predicted_s > top_other[1],
    }


def main() -> int:
    import numpy

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "commit": _commit(),
            "seconds": seconds,
        },
        "layer_to_end_to_end": LAYER_MAP,
        "workloads": {},
    }
    for name in PREDICTED:
        _run(name, TRACE_SEED, seconds, 1)
        stem = ROOT / ".perfbench_out" / f"{name}-seed{TRACE_SEED}"
        traced = json.loads(Path(f"{stem}.layers.json").read_text())
        held_out = _run(name, HELD_OUT_SEED, seconds, 0)
        record["workloads"][name] = {
            "self_time_s_and_share": traced["self_time"],
            "dominant_layer_check": _check(name, traced["self_time"]),
            "per_layer": traced["metrics"],
            "held_out_seed": HELD_OUT_SEED,
            "held_out_run": held_out,
        }
        print(name, record["workloads"][name]["dominant_layer_check"],
              flush=True)
    out = HERE / "record.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
