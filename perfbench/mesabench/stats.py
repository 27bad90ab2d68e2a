"""Small, dependency-free statistics used by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentile levels a tail latency may be reported at, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * percentile / 100.0))
    return sorted_values[rank - 1]


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - max(1, math.ceil(n * percentile / 100.0))


def tail_latency(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest level in :data:`TAIL_LEVELS`
    that has at least :data:`TAIL_MIN_BEYOND` samples beyond it.

    With too few samples for any level the maximum is reported at
    percentile 100, so the caller can still see how slow the worst was.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    chosen: Optional[float] = None
    for level in TAIL_LEVELS:
        if samples_beyond(n, level) >= TAIL_MIN_BEYOND:
            chosen = level
    if chosen is None:
        return ordered[-1], 100.0, n
    return nearest_rank(ordered, chosen), chosen, n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero
    median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Each span's self time, keyed by span id.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; overlapping children (work fanned out to
    threads) count once.  Spans are dicts with ``id``, ``parent``,
    ``start`` and ``end``.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        duration = span["end"] - span["start"]
        inner = covered(children.get(span["id"], []), span["start"],
                        span["end"])
        result[span["id"]] = max(0.0, duration - inner)
    return result
