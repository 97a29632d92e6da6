"""One left-to-right float sum for every result pinned bit for bit.

CPython 3.12 made the built-in ``sum()`` of floats compensated
(Neumaier summation), so its last bits differ from 3.11 and earlier,
which add left to right.  The golden files, the pinned e2e digests and
the search kernel's fast == naive contract (the kernel's path DP adds in
left-fold order) compare exact bits, so every float sum that reaches
them goes through :func:`left_sum` instead of ``sum()``.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as a plain left-to-right fold on every Python.

    Starts from the int ``0`` like ``sum()``, so an empty input gives
    ``0`` and the first float is taken as is.
    """
    total: float = 0
    for value in values:
        total += value
    return total
