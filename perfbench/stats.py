"""Summary statistics shared by the benchmark driver and its tests.

Stdlib only: the driver imports this before it knows whether the
checkout holds a runnable ``repro`` package.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Optional, Sequence

#: Metric names must survive every consumer of the result line.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Percentiles the tail rule may pick from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name)) and len(name) <= 64


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples sit above the ``q``-th percentile's
    interpolation rank (the count a tail estimate rests on)."""
    return n - 1 - int(math.floor((n - 1) * q / 100.0)) if n else 0


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it,
    or ``None`` when even the median lacks them (n < 20)."""
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= 10:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Run count, median and quartiles of one metric's samples."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    median = statistics.median(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": n, "median": median, "q1": q1, "q3": q3}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0
