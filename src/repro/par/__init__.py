"""Performance layer: memoized evaluation, timing sessions, sweeps.

Three pieces:

* :mod:`repro.par.memo` -- process-wide memoization of timing-arc and
  closed-form sizing evaluations, with hit/miss counters surfaced
  through :mod:`repro.obs`.
* :mod:`repro.par.session` -- STA over sizing moves:
  :class:`~repro.par.session.ArrayTimingSession` on the compiled array
  engine, and :class:`TimingSession`, its oracle, which re-runs a full
  object-engine analysis per move.
* :mod:`repro.par.sweep` -- deterministic process-pool fan-out for
  Monte Carlo sampling and design-space surveys (per-task seeds,
  ordered reduce, trace propagation back to the parent).

Submodules are resolved lazily (PEP 562): :mod:`repro.sta.engine`
imports ``repro.par.memo`` while ``repro.par.session`` imports the
engine, so an eager ``__init__`` would cycle.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.par.memo": ("memo",),
    "repro.par.session": ("session", "TimingSession"),
    "repro.par.sweep": ("sweep", "run_sweep", "task_seeds"),
})
