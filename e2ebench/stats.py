"""Order statistics with ranks that depend only on the sample count."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Fixed tail percentile of every latency metric.
TAIL = 0.90


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * N)``-th smallest.

    The rank depends on ``N`` alone, so two runs with the same fixed work
    read the same rank.  ``inf`` values (failed or refused operations)
    sort last, so a failure counts as missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float = TAIL) -> int:
    """How many of ``count`` samples lie strictly beyond the percentile."""
    return count - max(1, math.ceil(fraction * count))


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the spread rule the benchmark is judged by)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles, quartile spread and largest deviation, the
    last two as shares of the median."""
    q1, mid, q3 = quartiles(values)
    scale = abs(mid) if mid else 1.0
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "max_dev_share": max(abs(v - mid) for v in values) / scale,
    }
