"""Sample statistics used by every workload: percentiles, geomeans."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A percentile is *supported* by a sample when at least this many
#: samples lie beyond it (the tail it claims to describe is observed).
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n: int, q: float) -> bool:
    """Does a sample of ``n`` hold at least TAIL_SAMPLES beyond ``q``?"""
    return n * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the
    median (``statistics.quantiles(values, n=4)``, the default method)."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}
