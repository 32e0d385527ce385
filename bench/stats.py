"""Order statistics shared by the benchmark, its comparison tool and tests."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_CANDIDATES leaving at least MIN_BEYOND of ``n`` samples above it.

    ``None`` when even the median leaves fewer.  The product is compared
    in integer hundredths so that, e.g., p90 of exactly 100 samples
    (10 beyond) qualifies despite floating-point rounding.
    """
    for q in TAIL_CANDIDATES:
        if round(n * (100.0 - q)) >= 100 * MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
