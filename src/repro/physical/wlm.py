"""Pre-layout wire load models (WLMs).

Section 6.2: "Initial logic synthesis may choose drive strengths using
estimations for wire lengths and the net load a gate has to drive, but
this will differ from that in the final layout.  After layout,
transistors can be resized accounting for the drive strengths required
to send signals across the circuit."

A WLM is the pre-layout estimator: wire capacitance as a function of
fanout (and design size), the way synthesis libraries shipped them.  The
interesting measurable is the *mismatch* between WLM estimates and the
placed reality -- the reason post-layout resizing (bench E8) exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._fold import fold_sum
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.physical.geometry import GeometryError
from repro.physical.placement import Placement
from repro.sta.timing_graph import WireParasitics
from repro.tech.process import ProcessTechnology


@dataclass(frozen=True)
class WireLoadModel:
    """Fanout-indexed wire length estimator.

    Attributes:
        name: model name (synthesis libraries shipped small/medium/large).
        base_length_um: estimated wire length at fanout 1.
        length_per_fanout_um: incremental length per extra sink.
        design_area_scale: multiplier applied for bigger designs (bigger
            die, longer average wires).
    """

    name: str
    base_length_um: float
    length_per_fanout_um: float
    design_area_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.base_length_um < 0 or self.length_per_fanout_um < 0:
            raise GeometryError("WLM lengths must be non-negative")
        if self.design_area_scale <= 0:
            raise GeometryError("area scale must be positive")

    def length_um(self, fanout: int) -> float:
        """Estimated routed length of a net with the given sink count."""
        if fanout < 0:
            raise GeometryError("fanout cannot be negative")
        if fanout == 0:
            return 0.0
        return self.design_area_scale * (
            self.base_length_um
            + self.length_per_fanout_um * (fanout - 1)
        )


#: The classic synthesis-library trio.
WLM_SMALL = WireLoadModel("small", base_length_um=40.0,
                          length_per_fanout_um=25.0)
WLM_MEDIUM = WireLoadModel("medium", base_length_um=80.0,
                           length_per_fanout_um=50.0)
WLM_LARGE = WireLoadModel("large", base_length_um=160.0,
                          length_per_fanout_um=100.0)


def select_wlm(gate_count: int) -> WireLoadModel:
    """Pick a WLM by design size, the way synthesis scripts did."""
    if gate_count < 0:
        raise GeometryError("gate count cannot be negative")
    if gate_count < 500:
        return WLM_SMALL
    if gate_count < 5000:
        return WLM_MEDIUM
    return WLM_LARGE


def estimate_parasitics(
    module: Module,
    tech: ProcessTechnology,
    model: WireLoadModel | None = None,
) -> WireParasitics:
    """Pre-layout wire parasitics for every net from a WLM."""
    wlm = model or select_wlm(module.instance_count())
    extra_cap: dict[str, float] = {}
    extra_delay: dict[str, float] = {}
    for name, net in module.nets.items():
        fanout = sum(1 for s in net.sinks if not is_port_ref(s))
        length = wlm.length_um(fanout)
        if length <= 0:
            continue
        cw = tech.interconnect.wire_capacitance(length)
        rw = tech.interconnect.wire_resistance(length)
        extra_cap[name] = cw
        extra_delay[name] = 0.38 * rw * cw * 1e-3
    return WireParasitics(extra_cap_ff=extra_cap, extra_delay_ps=extra_delay)


@dataclass(frozen=True)
class WlmAccuracy:
    """WLM-vs-placement comparison for one design.

    Attributes:
        mean_ratio: mean of (estimated length / placed length) over nets
            with nonzero placed length.
        worst_underestimate: smallest ratio (nets the WLM flattered).
        worst_overestimate: largest ratio.
        nets_compared: sample size.
    """

    mean_ratio: float
    worst_underestimate: float
    worst_overestimate: float
    nets_compared: int


def compare_to_placement(
    module: Module,
    placement: Placement,
    model: WireLoadModel | None = None,
) -> WlmAccuracy:
    """Quantify WLM error against placed wire lengths."""
    wlm = model or select_wlm(module.instance_count())
    ratios = []
    for name, net in module.nets.items():
        fanout = sum(1 for s in net.sinks if not is_port_ref(s))
        placed = placement.net_length_um(name)
        if placed <= 1.0 or fanout == 0:
            continue
        ratios.append(wlm.length_um(fanout) / placed)
    if not ratios:
        raise GeometryError("no comparable nets")
    return WlmAccuracy(
        mean_ratio=fold_sum(ratios) / len(ratios),
        worst_underestimate=min(ratios),
        worst_overestimate=max(ratios),
        nets_compared=len(ratios),
    )
