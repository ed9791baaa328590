"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# The tail percentile is the highest one with at least this many samples
# strictly above it, so the figure never rests on one or two slow outliers.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: int) -> float:
    """The nearest-rank percentile of an ascending, non-empty sequence."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> tuple[str, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(label, value, samples)``. Only percentiles from p50 up count
    as a tail; with fewer samples than that needs, the maximum is returned
    and labelled ``max``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail of an empty sample")
    for percentile in range(99, 49, -1):
        value = nearest_rank(ordered, percentile)
        if sum(1 for v in ordered if v > value) >= TAIL_BEYOND:
            return f"p{percentile}", value, n
    return "max", ordered[-1], n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
