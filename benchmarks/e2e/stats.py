"""The few statistics the harness reports, and the rule for refusing one."""

from __future__ import annotations

import math
from statistics import median
from typing import Iterable, Sequence, Tuple

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def min_samples(q: float) -> int:
    """Fewest samples that leave ``SAMPLES_BEYOND`` past quantile ``q``."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q))


def percentile(values: Iterable[float], q: float,
               strict: bool = True) -> float:
    """Nearest-rank percentile.

    ``strict`` refuses a percentile with fewer than ten samples beyond
    it (200 for the 95th, 20 for the median) — the end-to-end rule.
    Layer metrics pass ``strict=False``: they get whatever the spans
    support, and 0.0 for a layer no request reached.
    """
    ordered = sorted(values)
    if strict and len(ordered) < min_samples(q):
        raise TooFewSamples(
            f"p{q * 100:g} needs {min_samples(q)} samples, "
            f"got {len(ordered)}")
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median``, the run-to-run spread printed beside it."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
