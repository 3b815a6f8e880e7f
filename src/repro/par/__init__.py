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

from __future__ import annotations

import importlib

__all__ = ["memo", "session", "sweep", "TimingSession", "run_sweep", "task_seeds"]

_LAZY_ATTRS = {
    "memo": ("repro.par.memo", None),
    "session": ("repro.par.session", None),
    "sweep": ("repro.par.sweep", None),
    "TimingSession": ("repro.par.session", "TimingSession"),
    "run_sweep": ("repro.par.sweep", "run_sweep"),
    "task_seeds": ("repro.par.sweep", "task_seeds"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value
