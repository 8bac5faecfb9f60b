"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def beyond(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank ``p``-th percentile of n."""
    return n - math.ceil(p / 100.0 * n)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_ok(n: int, p: float) -> bool:
    """True when ``p`` has at least :data:`MIN_BEYOND` samples beyond it."""
    return beyond(n, p) >= MIN_BEYOND


def median(values) -> float:
    return statistics.median(values)

