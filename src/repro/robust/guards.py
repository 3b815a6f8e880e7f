"""Numerical guards for the iterative solvers.

Bounded-iteration convergence wrappers with automatic
retry-with-relaxed-tolerance and a bisection fallback for the
self-consistent period solve, plus NaN/Inf detection helpers used by
the sizing loops.  The nominal (nothing-goes-wrong) path through every
wrapper is a try/except and a handful of ``isfinite`` checks, so the
gap flow pays well under 1% for carrying them.

The on/off switches live in :mod:`repro.robust.switches` and are
re-exported here.
"""

from __future__ import annotations

import math

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.robust.switches import (  # noqa: F401  (re-exported)
    KNOWN_GUARDS,
    GuardError,
    disable_guard,
    enable_all_guards,
    guard_enabled,
)
from repro.sizing.tilos import SizingResult, size_for_speed
from repro.sta.clocking import Clock
from repro.sta.engine import (
    ConvergenceError,
    TimingReport,
    clock_runner,
    solve_min_period,
)
from repro.sta.timing_graph import WireParasitics


class NonFiniteError(GuardError):
    """Raised when a solver accepts a NaN or Inf value."""


def ensure_finite(context: str, **values: float) -> None:
    """Raise :class:`NonFiniteError` if any value is NaN or Inf."""
    if not guard_enabled("finite"):
        return
    for key, value in values.items():
        if not math.isfinite(value):
            obs.count("robust.guard.nan_rejected")
            raise NonFiniteError(
                f"{context}: {key} is non-finite ({value})"
            )


def guarded_solve_min_period(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    tolerance_ps: float = 0.1,
    max_retries: int = 2,
    tolerance_relax: float = 10.0,
    bisection_steps: int = 40,
    **analyze_kwargs,
) -> TimingReport:
    """:func:`solve_min_period` with convergence fallbacks.

    Escalation ladder on :class:`ConvergenceError`:

    1. retry up to ``max_retries`` times, relaxing the tolerance by
       ``tolerance_relax`` each attempt (geometric convergence that
       stalls just short of a tight tolerance closes at a looser one);
    2. bisection on the fixed-point residual ``achieved(p) - p``, which
       only needs the achieved period to be monotone in the analysed
       period -- guaranteed here because skew and borrow windows are
       period fractions.

    Structural failures (undriven logic, overheads consuming the whole
    cycle) are not convergence problems and propagate unchanged.

    Raises:
        TimingError: for structural problems, or when even the
            bisection fallback cannot close.
    """
    if max_retries < 0 or tolerance_relax <= 1.0:
        raise GuardError("invalid retry policy")
    # max_iterations belongs to the fixed-point solver, not analyze();
    # keep it out of the kwargs the bisection fallback forwards.
    solver_kwargs = {}
    if "max_iterations" in analyze_kwargs:
        solver_kwargs["max_iterations"] = analyze_kwargs.pop(
            "max_iterations"
        )
    tol = tolerance_ps
    failure: ConvergenceError | None = None
    for attempt in range(max_retries + 1):
        try:
            report = solve_min_period(
                module, library, clock, wire=wire, tolerance_ps=tol,
                **solver_kwargs, **analyze_kwargs,
            )
        except ConvergenceError as exc:
            failure = exc
            if attempt < max_retries and guard_enabled("retry"):
                obs.count("robust.guard.retries")
                tol *= tolerance_relax
                continue
            break
        ensure_finite(
            "solve_min_period", min_period_ps=report.min_period_ps
        )
        return report
    if not guard_enabled("bisection"):
        raise failure
    obs.count("robust.guard.bisections")
    report = _bisection_solve(
        module, library, clock, wire, bisection_steps, **analyze_kwargs,
    )
    ensure_finite(
        "solve_min_period.bisection", min_period_ps=report.min_period_ps
    )
    return report


def _bisection_solve(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None,
    steps: int,
    **analyze_kwargs,
) -> TimingReport:
    """Find a self-consistent period by bisection on the residual.

    ``achieved(p)`` is the minimum period required when skew/borrow
    windows are derived from an analysed period ``p``; a feasible clock
    satisfies ``achieved(p) <= p``.  The residual is monotone, so once
    an upper bracket is found the feasible boundary is bisected.  On
    the array engine (the default ``use_array``) the ~100 probe analyses
    share one compiled propagation (only the endpoint accounting
    depends on the period), and only the returned clock gets a report.
    """
    run = clock_runner(module, library, wire, **analyze_kwargs)

    def achieved(period_ps: float) -> float:
        return run.min_period_ps(clock.with_period(period_ps))

    hi = max(achieved(clock.period_ps), 1.0)
    for _ in range(60):
        if achieved(hi) <= hi:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(
            "bisection fallback could not bracket a feasible period; "
            "overheads likely consume the whole cycle"
        )
    lo = 1e-3
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if achieved(mid) <= mid:
            hi = mid
        else:
            lo = mid
    return run(clock.with_period(hi))


def guarded_size_for_speed(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    **sizing_kwargs,
) -> SizingResult:
    """Transactional :func:`size_for_speed` with a finiteness gate.

    Sizing runs on the caller's netlist, but every instance's cell is
    recorded first and put back if the pass raises or ends non-finite.
    A sizing loop that diverges or trips a typed error therefore leaves
    the caller's module exactly as it was -- which is what lets the
    flows skip a failed sizing stage and still hand a well-formed
    netlist to STA.  A pass that succeeds has sized that very netlist,
    so its ``array_state`` is the caller's module's timing.
    """
    cells = {name: inst.cell_name for name, inst in module.instances.items()}
    try:
        result = size_for_speed(module, library, clock, wire=wire,
                                **sizing_kwargs)
        ensure_finite(
            "size_for_speed",
            final_period_ps=result.final_period_ps,
            area_after_um2=result.area_after_um2,
        )
    except BaseException:
        for name, cell_name in cells.items():
            module.replace_cell(name, cell_name)
        raise
    return result
