"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MIN_TAIL", "geomean", "median", "percentile", "tail_percentile"]

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it; a p90 drawn from a handful of slow jobs moved
#: by 10% between identical runs.
MIN_TAIL = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 90, 75, 50)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return percentile(values, 50, min_tail=0)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of a non-empty sequence of positive numbers."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def percentile(
    values: Sequence[float], q: float, *, min_tail: int = MIN_TAIL
) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than ``min_tail`` samples lie
    strictly above the result: such a percentile is set by a few
    outliers and does not repeat.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered if v > value)
    if beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {min_tail})"
        )
    return value


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES` that
    has :data:`MIN_TAIL` samples beyond it."""
    for q in TAIL_PERCENTILES:
        try:
            return q, percentile(values, q)
        except ValueError:
            continue
    raise ValueError(
        f"{len(values)} samples: no percentile has {MIN_TAIL} beyond it"
    )
