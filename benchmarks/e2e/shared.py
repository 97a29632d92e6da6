"""Stdlib-only helpers shared by ``run.py`` and the workload processes
(``run.py`` never imports the program under test)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: the line a workload process prints when its set-up is done
READY = "E2E-READY"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
