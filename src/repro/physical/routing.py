"""Routing estimation: Steiner-lite lengths and congestion detours.

A full maze router is out of scope for the paper's analyses; what the
timing model needs is a defensible estimate of *routed* length per net.
We provide:

* rectilinear Steiner minimal-tree approximation (HPWL for 2-3 pins,
  Hanan-style chain for more -- within a few percent of RSMT on the net
  sizes placement produces);
* a congestion model that inflates lengths in over-utilised regions,
  letting experiments show how poor placement compounds into detours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._fold import fold_sum
from repro.physical.geometry import GeometryError, Point
from repro.physical.placement import Placement


def steiner_length_um(pins: list[Point]) -> float:
    """Approximate rectilinear Steiner tree length of a pin set.

    Exact (equal to HPWL) for 2 and 3 pins; for larger nets uses the
    sorted-x chain bound: HPWL plus the extra vertical span of interior
    pins, a standard fast RSMT surrogate.
    """
    if len(pins) < 2:
        return 0.0
    xs = sorted(p.x for p in pins)
    ys = sorted(p.y for p in pins)
    hpwl = (xs[-1] - xs[0]) + (ys[-1] - ys[0])
    if len(pins) <= 3:
        return hpwl
    by_x = sorted(pins, key=lambda p: p.x)
    extra = 0.0
    for i in range(1, len(by_x) - 1):
        nearest = min(
            abs(by_x[i].y - by_x[i - 1].y), abs(by_x[i].y - by_x[i + 1].y)
        )
        extra += 0.5 * nearest
    return hpwl + extra


@dataclass(frozen=True)
class CongestionModel:
    """Detour inflation as a function of regional utilisation.

    Attributes:
        base_detour: multiplier applied to every net (via blockages,
            non-preferred-direction jogs).
        congestion_exponent: how sharply detours grow once demand
            approaches capacity.
    """

    base_detour: float = 1.1
    congestion_exponent: float = 2.0

    def detour_factor(self, utilisation: float) -> float:
        """Length multiplier at a given routing utilisation (0..1+)."""
        if utilisation < 0:
            raise GeometryError("utilisation cannot be negative")
        congestion = max(0.0, utilisation - 0.6) / 0.4
        return self.base_detour * (1.0 + 0.5 * congestion**self.congestion_exponent)


def routed_lengths_um(
    placement: Placement,
    congestion: CongestionModel | None = None,
    utilisation: float = 0.7,
) -> dict[str, float]:
    """Estimated routed length for every net of a placement."""
    model = congestion or CongestionModel()
    factor = model.detour_factor(utilisation)
    lengths: dict[str, float] = {}
    for net in placement.module.nets:
        pins = placement._net_pins(net)
        lengths[net] = steiner_length_um(pins) * factor
    return lengths


def total_routed_length_um(
    placement: Placement,
    congestion: CongestionModel | None = None,
    utilisation: float = 0.7,
) -> float:
    """Total routed wirelength of a placement."""
    return fold_sum(routed_lengths_um(placement, congestion, utilisation).values())
