"""Performance layer: timing sessions and sweeps.

Two pieces:

* :mod:`repro.par.session` -- STA over sizing moves:
  :class:`~repro.par.session.ArrayTimingSession` on the compiled array
  engine, and :class:`TimingSession`, its oracle, which re-runs a full
  object-engine analysis per move.
* :mod:`repro.par.sweep` -- deterministic process-pool fan-out for
  Monte Carlo sampling and design-space surveys (per-task seeds,
  ordered reduce, trace propagation back to the parent).

:mod:`repro.par.memo` is what is left of a retired process-wide delay
memo: a no-op ``reset()`` kept for callers that still import it.

Submodules are resolved lazily (PEP 562), so importing the package
loads none of them.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.par.memo": ("memo",),
    "repro.par.session": ("session", "TimingSession"),
    "repro.par.sweep": ("sweep", "run_sweep", "task_seeds"),
})
