"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; ``fraction`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input).

    Uses :func:`math.fsum` so the result is exactly rounded — and therefore
    independent of any upstream reordering of equal-content inputs, which
    the parallel sweep merge relies on.
    """
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


def summarize(values: Iterable[float]) -> Summary:
    """Build a :class:`Summary` (all-zero for an empty sample)."""
    data = list(values)
    if not data:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=len(data),
        mean=mean(data),
        p50=percentile(data, 0.50),
        p95=percentile(data, 0.95),
        p99=percentile(data, 0.99),
        minimum=min(data),
        maximum=max(data),
    )
