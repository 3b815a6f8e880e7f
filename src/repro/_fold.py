"""Float totals that round the same on every supported interpreter.

Python 3.12 made the built-in ``sum()`` compensate float rounding, so
the same floats total differently on 3.10/3.11 and on 3.12+.  A float
total that reaches a result adds through :func:`fold_sum` instead: a
left-to-right fold, which is what ``sum()`` computed before 3.12.
"""

from __future__ import annotations

from typing import Iterable


def fold_sum(values: Iterable, start=0):
    """``start`` plus each of ``values`` in order, rounding after each add.

    Bitwise equal to ``sum(values, start)`` on Python 3.10 and 3.11.
    """
    total = start
    for value in values:
        total += value
    return total
