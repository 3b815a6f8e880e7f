"""Continuous sizing by the method of logical effort.

Section 6: "In an ideal design, each circuit is optimally crafted from
transistors and each transistor is individually sized to meet the drive
requirements of the capacitive load it faces ... Only in a custom design
methodology can this ideal be realized."

The method of logical effort is that ideal in closed form: along a path
of N stages with logical efforts g_i, branching b_i, parasitics p_i,
driving a path electrical effort H = C_out / C_in, the minimum delay is

    D = N * F^(1/N) + P,   F = G * B * H,  G = prod g_i,  B = prod b_i,
    P = sum p_i

achieved when every stage bears equal effort f = F^(1/N).  All delays
here are in units of tau; multiply by ``tech.tau_ps`` for picoseconds.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro._fold import fold_sum


class SizingError(ValueError):
    """Raised for unphysical sizing problems."""

#: Best stage effort: the delay-optimal fanout per stage when extra
#: inverters may be added (rho for p_inv = 1).
BEST_STAGE_EFFORT = 3.59


@dataclass(frozen=True)
class PathStage:
    """One stage of a logical-effort path.

    Attributes:
        logical_effort: stage g.
        parasitic: stage p (units of tau).
        branching: stage branch factor b (off-path load over on-path).
    """

    logical_effort: float
    parasitic: float
    branching: float = 1.0

    def __post_init__(self) -> None:
        if self.logical_effort <= 0 or self.branching < 1.0:
            raise SizingError("g must be positive and b >= 1")
        if self.parasitic < 0:
            raise SizingError("parasitic must be non-negative")


@dataclass(frozen=True)
class PathSolution:
    """Result of a logical-effort path optimisation.

    Attributes:
        delay_tau: minimum achievable path delay in tau.
        stage_effort: the equalised per-stage effort f.
        input_caps: optimal input capacitance of each stage, as multiples
            of the path's input capacitance C_in (first entry is 1.0).
        path_effort: total effort F.
    """

    delay_tau: float
    stage_effort: float
    input_caps: tuple[float, ...]
    path_effort: float

    def delay_ps(self, tau_ps: float) -> float:
        return self.delay_tau * tau_ps


def optimize_path(
    stages: Iterable[PathStage], electrical_effort: float
) -> PathSolution:
    """Minimum-delay continuous sizing of a fixed-topology path.

    Args:
        stages: the gates on the path, in driving order (any iterable).
        electrical_effort: H = C_load / C_in of the whole path.
    """
    stages = tuple(stages)
    if not stages:
        raise SizingError("path has no stages")
    if electrical_effort <= 0:
        raise SizingError("electrical effort must be positive")
    g_total = math.prod(s.logical_effort for s in stages)
    b_total = math.prod(s.branching for s in stages)
    path_effort = g_total * b_total * electrical_effort
    n = len(stages)
    f = path_effort ** (1.0 / n)
    delay = n * f + fold_sum(s.parasitic for s in stages)
    # Work backwards: C_in(i) = g_i * C_out(i) * b_i / f.
    caps = [0.0] * n
    cout = electrical_effort  # in units of the path input cap
    for i in range(n - 1, -1, -1):
        caps[i] = stages[i].logical_effort * cout * stages[i].branching / f
        cout = caps[i]
    scale = 1.0 / caps[0]
    caps = tuple(c * scale for c in caps)
    return PathSolution(
        delay_tau=delay,
        stage_effort=f,
        input_caps=caps,
        path_effort=path_effort,
    )


def best_stage_count(path_effort: float, parasitic_per_stage: float = 1.0) -> int:
    """Delay-optimal number of stages for a path effort.

    The optimum satisfies f * (1 - ln f) + p = 0; for p_inv = 1 the best
    stage effort is ~3.59, so N* = ln F / ln 3.59, rounded to the nearest
    achievable integer (minimum 1).
    """
    if path_effort <= 0:
        raise SizingError("path effort must be positive")
    if path_effort <= 1.0:
        return 1
    rho = _stage_effort_for_parasitic(parasitic_per_stage)
    return max(1, round(math.log(path_effort) / math.log(rho)))


def _stage_effort_for_parasitic(p: float) -> float:
    """Solve f(1 - ln f) + p = 0 for the optimal stage effort."""
    lo, hi = math.e, 20.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 - math.log(mid)) + p > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delay_with_stage_count(
    path_effort: float, stages: int, parasitic_per_stage: float = 1.0
) -> float:
    """Path delay in tau for a given stage count (adding inverters).

    Used to decide whether lengthening a path with buffers wins: the
    classic U-shaped delay-vs-stages curve.
    """
    if stages < 1:
        raise SizingError("need at least one stage")
    return stages * path_effort ** (1.0 / stages) + stages * parasitic_per_stage


def chain_delay_tau(stage_count: int, fanout: float, parasitic: float = 1.0) -> float:
    """Delay of a uniform inverter chain at a fixed per-stage fanout."""
    if stage_count < 1 or fanout <= 0:
        raise SizingError("invalid chain")
    return stage_count * (fanout + parasitic)


def sizing_speedup_bound(
    stages: list[PathStage],
    electrical_effort: float,
    actual_delay_tau: float,
) -> float:
    """How much faster optimal continuous sizing is than an actual delay.

    Section 6.2's "can make a speed difference of 20% or more" compares a
    naively sized path against its optimum; this returns
    ``actual / optimal``.
    """
    optimal = optimize_path(stages, electrical_effort).delay_tau
    if actual_delay_tau < optimal - 1e-9:
        raise SizingError(
            f"actual delay {actual_delay_tau} beats the optimum {optimal}; "
            "check the path model"
        )
    return actual_delay_tau / optimal
