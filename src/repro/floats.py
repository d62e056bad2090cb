"""Float sums with the same bits on every supported Python.

From CPython 3.12 on, the built-in ``sum()`` of floats is compensated,
so it can differ in the last bit from the left-to-right sum that
earlier versions compute. A sum that feeds a random draw or a snapshot
goes through :func:`left_sum` instead, so a run's draws and report
bytes do not depend on the interpreter.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, as the built-in ``sum()`` adds
    them before CPython 3.12 (an empty input sums to ``0``)."""
    total = 0
    for value in values:
        total += value
    return total
