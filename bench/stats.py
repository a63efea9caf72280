"""Order statistics for the harness, with no dependency on the program.

The benchmark must not borrow its arithmetic from the code it measures
(``repro.tuner.costmodel.spearman`` exists, but a change to it would
silently change a benchmark row), so the few statistics it needs live
here. All functions take plain sequences of floats.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — numpy's default ``linear`` method.

    Raises:
        ValueError: ``values`` is empty or ``q`` is outside 0..100.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q!r} is outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The median; ``ValueError`` on an empty sample."""
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median.

    The quartiles are the ones ``statistics.quantiles(values, n=4)``
    gives, which is what the driver of ``BENCHMARK.json`` computes, so a
    spread printed here compares directly with a bound there. Fewer than
    two values, or a zero median, have no spread: 0.0.
    """
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    return (third - first) / abs(middle)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values, independent of their order.

    ``math.fsum`` rounds the exact sum once, so permuting the inputs
    (the seed permutes the workloads' kernel instantiations) cannot
    change a digit of the result.

    Raises:
        ValueError: empty input or a non-positive value.
    """
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in sorted(values)) / len(values))


def _ranks(values: Sequence[float]) -> list:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and (
            values[order[end + 1]] == values[order[start]]
        ):
            end += 1
        shared = (start + end) / 2.0 + 1.0
        for position in range(start, end + 1):
            ranks[order[position]] = shared
        start = end + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation; 0.0 when either side is constant.

    Raises:
        ValueError: the samples differ in length or hold < 2 points.
    """
    if len(xs) != len(ys):
        raise ValueError("spearman needs samples of equal length")
    if len(xs) < 2:
        raise ValueError("spearman needs at least two points")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
