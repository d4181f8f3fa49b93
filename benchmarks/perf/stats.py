"""Order statistics the benchmark reports and compares."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: ... and is never above this one.
TAIL_CAP = 90


def _rank(percentile: int, count: int) -> int:
    """1-based nearest rank of *percentile* among *count* samples."""
    return -(-percentile * count // 100)


def tail_percentile(count: int) -> int:
    """The highest whole percentile <= :data:`TAIL_CAP` with at least
    :data:`TAIL_SAMPLES` of *count* samples beyond it.

    Percentile ``p`` is the nearest-rank sample ``ceil(p * n / 100)``, so
    ``n - ceil(p * n / 100)`` samples lie beyond it, which is at least
    ``TAIL_SAMPLES`` exactly when ``p <= 100 * (n - TAIL_SAMPLES) / n``.
    With fewer than ``2 * TAIL_SAMPLES`` samples that percentile is below
    the median, which is no tail, so the maximum (100) is reported
    instead.
    """
    percentile = min(TAIL_CAP, 100 * (count - TAIL_SAMPLES) // count)
    return percentile if percentile >= 50 else 100


def percentile_value(values: list[float], percentile: int) -> float:
    """Nearest-rank *percentile* of *values* (non-empty)."""
    ordered = sorted(values)
    rank = max(1, _rank(percentile, len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """``(percentile, value)`` of the reported tail of *values*."""
    percentile = tail_percentile(len(values))
    return percentile, percentile_value(values, percentile)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else math.inf
