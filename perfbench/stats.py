"""Percentiles and the resource figures the benchmark reports."""

from __future__ import annotations

import math
import resource
import sys
from typing import Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The percentile has fewer than :data:`MIN_BEYOND` samples beyond it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    Refuses, rather than extrapolates, when fewer than ``MIN_BEYOND``
    samples lie beyond the rank: a p90 needs at least 100 samples.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
