"""Summary statistics of the benchmark's samples."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    with n=4 gives them; a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition: percentile p is the sample of rank
    ceil(p * n / 100).  Returns ``(p, value)``, or ``None`` when there are
    fewer than ``beyond + 1`` samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]
