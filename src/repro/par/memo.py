"""What is left of the retired process-wide delay memo.

The memo cached timing-arc queries and closed-form sizing results.  The
array engine, which every production path times with, never queried it,
and switching it off left every measured run as fast, so it went.

:func:`reset` stays, as a no-op, because the frozen benchmark harness
(``perfbench/workloads.py:reset_caches``) imports ``repro.par.memo`` and
calls it before each cold op.
"""


def reset() -> None:
    """Do nothing: there is no memo left to empty."""
