"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest rank returns a sample that was actually observed, so a p99
    over 1000 latencies is the 990th smallest, with ten samples above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def median(values) -> float:
    """The middle sample, or the mean of the two middle samples."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above their nearest-rank ``q``-th
    percentile."""
    return count - max(1, math.ceil(q / 100 * count)) if count else 0


def samples_needed(q: float, beyond: int = 10) -> int:
    """The fewest samples that leave ``beyond`` of them above the
    ``q``-th percentile (1000 for p99 with ten beyond)."""
    count = beyond
    while samples_beyond(count, q) < beyond:
        count += 1
    return count
