"""Simultaneous gate and wire sizing (the paper's reference [6]).

Section 6.2 closes with: "Tools for wire sizing along with transistor
sizing may be available in the future (e.g. [6])" -- Chen, Chu & Wong's
Lagrangian-relaxation formulation.  This module implements the tractable
core of that idea on a single driver-wire-load path:

    delay(x, w) = p + R0/x * (Cw(w) + CL)            (gate term)
                + 0.38 * Rw(w) * Cw(w) + Rw(w) * CL  (wire term)

with gate size ``x`` and wire width ``w`` optimised *jointly* under an
area budget, by alternating exact one-dimensional minimisations (the
coordinate-minimisation form of the KKT conditions, which is exact here
because the delay is posynomial and the subproblems are convex in each
variable).  The measurable claim: joint optimisation beats gate-only
then wire-only sequencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.sizing.logical_effort import SizingError
from repro.tech.process import ProcessTechnology


@dataclass(frozen=True)
class JointSizingResult:
    """Outcome of a joint gate+wire optimisation.

    Attributes:
        gate_size: driver drive strength (multiples of unit inverter).
        wire_width_um: chosen wire width.
        delay_ps: resulting path delay.
        area_cost: normalised area (gate size + wire metal area units).
        iterations: coordinate rounds to convergence.
    """

    gate_size: float
    wire_width_um: float
    delay_ps: float
    area_cost: float
    iterations: int


def path_delay_ps(
    tech: ProcessTechnology,
    gate_size: float,
    wire_width_um: float,
    length_um: float,
    load_ff: float,
) -> float:
    """Delay of driver -> wire -> load for given sizes."""
    if gate_size <= 0:
        raise SizingError("gate size must be positive")
    r0 = tech.unit_drive_resistance_ohm
    rw = tech.interconnect.wire_resistance(length_um, wire_width_um)
    cw = tech.interconnect.wire_capacitance(length_um, wire_width_um)
    parasitic = tech.tau_ps * tech.inverter_parasitic
    gate_term = (r0 / gate_size) * (cw + load_ff) * 1e-3
    wire_term = (0.38 * rw * cw + math.log(2.0) * rw * load_ff) * 1e-3
    return parasitic + gate_term + wire_term


def _best_gate_size(
    tech: ProcessTechnology,
    wire_width_um: float,
    length_um: float,
    load_ff: float,
    area_weight: float,
) -> float:
    """Closed-form optimal driver size under an area penalty.

    Minimising ``R0 (Cw + CL) / x + lambda * x`` gives
    ``x* = sqrt(R0 (Cw + CL) / lambda)``.
    """
    r0 = tech.unit_drive_resistance_ohm
    cw = tech.interconnect.wire_capacitance(length_um, wire_width_um)
    total = (cw + load_ff) * r0 * 1e-3
    return max(1.0, math.sqrt(total / max(area_weight, 1e-12)))


def _best_wire_width(
    tech: ProcessTechnology,
    gate_size: float,
    length_um: float,
    load_ff: float,
    area_weight: float,
    max_width_multiple: float,
) -> float:
    """One-dimensional search for the width minimising delay + area."""
    base = tech.interconnect.min_width_um
    best_w = base
    best_cost = math.inf
    steps = 40
    for i in range(steps + 1):
        width = base * (1.0 + (max_width_multiple - 1.0) * i / steps)
        delay = path_delay_ps(tech, gate_size, width, length_um, load_ff)
        metal = (width - base) * length_um / 1000.0
        cost = delay + area_weight * metal
        if cost < best_cost:
            best_cost = cost
            best_w = width
    return best_w


def joint_size(
    tech: ProcessTechnology,
    length_um: float,
    load_ff: float,
    area_weight: float = 0.5,
    max_width_multiple: float = 6.0,
    max_rounds: int = 25,
    tolerance_ps: float = 0.01,
) -> JointSizingResult:
    """Jointly optimise driver size and wire width for one path.

    Args:
        tech: process technology.
        length_um: wire length.
        load_ff: receiver load.
        area_weight: Lagrange multiplier trading delay (ps) against area
            (driver size units / metal-square-mm units).
        max_width_multiple: width search bound (multiples of min width).
        max_rounds: coordinate-descent round limit.
        tolerance_ps: convergence threshold on delay.
    """
    if not (length_um > 0) or not (load_ff >= 0) or not math.isfinite(
        length_um + load_ff
    ):
        raise SizingError("invalid path parameters")
    if not (area_weight > 0) or not math.isfinite(area_weight):
        raise SizingError("area weight must be positive and finite")
    width = tech.interconnect.min_width_um
    gate = 1.0
    previous = math.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        gate = _best_gate_size(tech, width, length_um, load_ff, area_weight)
        width = _best_wire_width(
            tech, gate, length_um, load_ff, area_weight, max_width_multiple
        )
        delay = path_delay_ps(tech, gate, width, length_um, load_ff)
        if not math.isfinite(delay):
            raise SizingError(
                f"joint sizing accepted a non-finite delay at round "
                f"{rounds} (gate={gate}, width={width})"
            )
        if abs(previous - delay) <= tolerance_ps:
            break
        previous = delay
    delay = path_delay_ps(tech, gate, width, length_um, load_ff)
    metal = (width - tech.interconnect.min_width_um) * length_um / 1000.0
    obs.count("sizing.joint.calls")
    obs.observe("sizing.joint.rounds", rounds)
    obs.observe("sizing.joint.area_cost", gate + metal)
    return JointSizingResult(
        gate_size=gate,
        wire_width_um=width,
        delay_ps=delay,
        area_cost=gate + metal,
        iterations=rounds,
    )


def sequential_size(
    tech: ProcessTechnology,
    length_um: float,
    load_ff: float,
    area_weight: float = 0.5,
    max_width_multiple: float = 6.0,
) -> JointSizingResult:
    """The non-joint baseline: size the gate first (at min-width wire),
    then the wire for that fixed gate.  What separate tools do."""
    min_w = tech.interconnect.min_width_um
    gate = _best_gate_size(tech, min_w, length_um, load_ff, area_weight)
    width = _best_wire_width(
        tech, gate, length_um, load_ff, area_weight, max_width_multiple
    )
    delay = path_delay_ps(tech, gate, width, length_um, load_ff)
    metal = (width - min_w) * length_um / 1000.0
    return JointSizingResult(
        gate_size=gate,
        wire_width_um=width,
        delay_ps=delay,
        area_cost=gate + metal,
        iterations=1,
    )
