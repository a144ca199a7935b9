"""Summary statistics the benchmark reports: order statistics, means.

Everything here is pure and dependency-free so the tests can pin it
exactly.  Percentiles are *order statistics* (nearest rank), never
interpolated: a reported p99 is a latency some request really had.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MIN_BEYOND", "geomean", "median", "percentile",
           "samples_beyond"]

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n``."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    # Round away float noise such as 0.99 * 1000 = 990.0000000000001.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank above the ``pct`` percentile."""
    return n - _rank(n, pct)


def percentile(values: Sequence[float], pct: float,
               min_beyond: int = 0) -> float:
    """Nearest-rank ``pct`` percentile of ``values``.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond it, so a tail figure is never quoted from too few samples.
    """
    ordered = sorted(values)
    beyond = samples_beyond(len(ordered), pct)
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {min_beyond}")
    return ordered[_rank(len(ordered), pct) - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for an even count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (each counts equally)."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
