"""Order statistics used for every reported timing."""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Percentile of an input's repeats taken as its latency (repeat_latency).
REPEAT_PERCENTILE = 90


def median(values) -> float:
    return float(statistics.median(values))


def repeat_latency(values) -> float:
    """An input's latency over its repeats: the nearest-rank
    REPEAT_PERCENTILE-th percentile (the largest of fewer than 10).

    A shared machine switches between speed levels up to ~1.8x apart for
    seconds to tens of seconds, in proportions that change from run to
    run.  The slow level is there in every run; the fast one comes and
    goes.  A median or mean of repeats moves with the proportion, and a
    minimum jumps to the fast level only in runs that happened to get it;
    a high percentile stays on the slow level, and still ignores a stray
    outlier once there are 10 or more repeats."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return float(xs[math.ceil(REPEAT_PERCENTILE / 100 * len(xs)) - 1])


def tail(values) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with >= TAIL_MIN_BEYOND samples
    strictly beyond its rank.

    Returns (value, percentile, n).  With n sorted samples the value is the
    (n - 10)-th smallest, whose percentile is 100 (n - 10) / n: any higher
    percentile would rank at or past the 10th-largest sample.  With fewer
    than 2 * 10 samples that percentile would lie at or below the median,
    so the median is returned with its percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_MIN_BEYOND:
        return median(xs), 50.0, n
    k = n - TAIL_MIN_BEYOND          # 1-based rank of the reported sample
    return float(xs[k - 1]), 100.0 * k / n, n


def iqr_share(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
