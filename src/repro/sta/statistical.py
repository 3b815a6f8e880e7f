"""Statistical static timing analysis (SSTA-lite).

Section 8.1.1 names intra-die variation as one of the four components:
device mismatch makes every gate's delay a random variable, so a chip's
cycle time is the *max over paths of sums of random delays*.  The
population model in :mod:`repro.variation.montecarlo` approximates this
with an abstract max-of-N draw; this module computes it on the actual
netlist:

* every gate delay is ``N(nominal, sigma_fraction * nominal)``,
  independent across gates (pure intra-die mismatch);
* means and variances propagate topologically; at reconvergence the max
  of two Gaussians is approximated by Clark's moment-matching formulas;
* endpoints yield a Gaussian minimum-period estimate, from which
  parametric yield at a target period follows.

A Monte Carlo fallback (:func:`monte_carlo_min_period`) samples actual
gate-delay realisations for cross-validation; the test suite checks the
analytical propagation against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.sta.array import monte_carlo_min_period_batched
from repro.sta.clocking import Clock
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS
from repro.sta.timing_graph import TimingError, TimingGraph, WireParasitics

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clark_max(
    mean_a: float, var_a: float, mean_b: float, var_b: float
) -> tuple[float, float]:
    """Clark's approximation to max of two independent Gaussians.

    Returns the (mean, variance) of ``max(A, B)`` by moment matching.
    """
    theta = math.sqrt(max(var_a + var_b, 1e-18))
    alpha = (mean_a - mean_b) / theta
    cdf = _cdf(alpha)
    pdf = _phi(alpha)
    mean = mean_a * cdf + mean_b * (1.0 - cdf) + theta * pdf
    second = (
        (var_a + mean_a * mean_a) * cdf
        + (var_b + mean_b * mean_b) * (1.0 - cdf)
        + (mean_a + mean_b) * theta * pdf
    )
    var = max(second - mean * mean, 0.0)
    return mean, var


@dataclass(frozen=True)
class StatisticalReport:
    """Result of a statistical timing run.

    Attributes:
        mean_period_ps: mean of the minimum feasible period.
        sigma_period_ps: its standard deviation.
        nominal_period_ps: the deterministic (sigma=0) period.
    """

    mean_period_ps: float
    sigma_period_ps: float
    nominal_period_ps: float

    @property
    def mean_shift_fraction(self) -> float:
        """Mean-over-nominal excess: the max-of-paths penalty.

        Statistical max makes the *expected* chip slower than its
        nominal corner -- the effect the paper's binning model captures
        as the intra-die penalty.
        """
        return self.mean_period_ps / self.nominal_period_ps - 1.0

    def period_at_yield(self, yield_target: float) -> float:
        """Period met by a fraction ``yield_target`` of dies."""
        if not 0.0 < yield_target < 1.0:
            raise TimingError("yield target must be in (0, 1)")
        from statistics import NormalDist

        z = NormalDist().inv_cdf(yield_target)
        return self.mean_period_ps + z * self.sigma_period_ps

    def yield_at_period(self, period_ps: float) -> float:
        """Fraction of dies meeting a period."""
        if self.sigma_period_ps <= 0:
            return 1.0 if period_ps >= self.mean_period_ps else 0.0
        return _cdf(
            (period_ps - self.mean_period_ps) / self.sigma_period_ps
        )


def _gate_delay_stats(
    graph: TimingGraph,
    module: Module,
    sigma_fraction: float,
):
    """Per-(instance, pin) nominal delays at their actual loads."""
    delays = {}
    for inst in module.iter_instances():
        cell = graph.cell_of(inst.name)
        if cell.is_sequential:
            continue
        if not inst.outputs:
            continue
        load = graph.instance_load_ff(inst.name)
        for pin in inst.inputs:
            nominal = cell.delay_ps(pin, load, DEFAULT_INPUT_SLEW_PS)
            delays[(inst.name, pin)] = (
                nominal, (sigma_fraction * nominal) ** 2
            )
    return delays


def analyze_statistical(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float = 0.05,
    wire: WireParasitics | None = None,
) -> StatisticalReport:
    """Propagate gate-delay distributions through the timing graph.

    Args:
        module: mapped netlist.
        library: its library.
        clock: clock domain (skew added deterministically).
        sigma_fraction: per-gate intra-die 1-sigma as a fraction of the
            gate's nominal delay.
        wire: optional wire parasitics (treated as deterministic).
    """
    if not 0.0 <= sigma_fraction < 0.5:
        raise TimingError("sigma fraction must be in [0, 0.5)")
    graph = TimingGraph(module, library, wire)
    seq_names = graph.sequential_cell_names()
    order = topological_order(module, seq_names)
    gate_stats = _gate_delay_stats(graph, module, sigma_fraction)

    mean: dict[str, float] = {}
    var: dict[str, float] = {}
    for net, kind in graph.start_nets().items():
        if kind == "input":
            mean[net] = 0.0
            var[net] = 0.0
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        for net in inst.outputs.values():
            mean[net] = cell.sequential.clk_to_q_ps
            var[net] = (sigma_fraction * cell.sequential.clk_to_q_ps) ** 2

    for inst_name in order:
        inst = module.instance(inst_name)
        cell = graph.cell_of(inst_name)
        if cell.is_sequential:
            continue
        out_nets = list(inst.outputs.values())
        if not out_nets:
            continue
        acc_mean = None
        acc_var = 0.0
        for pin, in_net in inst.inputs.items():
            if in_net not in mean:
                raise TimingError(f"net {in_net!r} has no arrival")
            d_mean, d_var = gate_stats[(inst_name, pin)]
            wire_d = graph.wire.delay(in_net)
            cand_mean = mean[in_net] + wire_d + d_mean
            cand_var = var[in_net] + d_var
            if acc_mean is None:
                acc_mean, acc_var = cand_mean, cand_var
            else:
                acc_mean, acc_var = clark_max(
                    acc_mean, acc_var, cand_mean, cand_var
                )
        for net in out_nets:
            mean[net] = acc_mean
            var[net] = acc_var

    end_mean = None
    end_var = 0.0
    found = False
    for kind, detail in graph.endpoints():
        if kind == "port":
            net = str(detail)
            if net not in mean:
                raise TimingError(f"output port {net!r} undriven")
            m = mean[net] + graph.wire.delay(net)
            v = var[net]
        else:
            inst_name, pin = detail
            inst = module.instance(inst_name)
            cell = graph.cell_of(inst_name)
            net = inst.inputs[pin]
            if net not in mean:
                raise TimingError(f"register input {net!r} undriven")
            borrow = (
                clock.borrow_window_ps if cell.sequential.transparent else 0.0
            )
            m = (
                mean[net] + graph.wire.delay(net)
                + cell.sequential.setup_ps + clock.skew_ps - borrow
            )
            v = var[net]
        found = True
        if end_mean is None:
            end_mean, end_var = m, v
        else:
            end_mean, end_var = clark_max(end_mean, end_var, m, v)
    if not found or end_mean is None:
        raise TimingError("module has no timing endpoints")

    return StatisticalReport(
        mean_period_ps=end_mean,
        sigma_period_ps=math.sqrt(end_var),
        nominal_period_ps=_nominal_period(module, library, clock, wire),
    )


def _nominal_period(module, library, clock, wire) -> float:
    """Deterministic period under the same (fixed-slew) delay model."""
    return _propagate_deterministic(module, library, clock, wire)


def _propagate_deterministic(module, library, clock, wire) -> float:
    graph = TimingGraph(module, library, wire)
    order = topological_order(module, graph.sequential_cell_names())
    gate_stats = _gate_delay_stats(graph, module, 0.0)
    arrival: dict[str, float] = {}
    for net, kind in graph.start_nets().items():
        if kind == "input":
            arrival[net] = 0.0
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        for net in inst.outputs.values():
            arrival[net] = cell.sequential.clk_to_q_ps
    for inst_name in order:
        inst = module.instance(inst_name)
        cell = graph.cell_of(inst_name)
        if cell.is_sequential:
            continue
        out_nets = list(inst.outputs.values())
        if not out_nets:
            continue
        best = max(
            arrival[in_net] + graph.wire.delay(in_net)
            + gate_stats[(inst_name, pin)][0]
            for pin, in_net in inst.inputs.items()
        )
        for net in out_nets:
            arrival[net] = best
    worst = -math.inf
    for kind, detail in graph.endpoints():
        if kind == "port":
            worst = max(
                worst, arrival[str(detail)] + graph.wire.delay(str(detail))
            )
        else:
            inst_name, pin = detail
            inst = module.instance(inst_name)
            cell = graph.cell_of(inst_name)
            net = inst.inputs[pin]
            borrow = (
                clock.borrow_window_ps if cell.sequential.transparent else 0.0
            )
            worst = max(
                worst,
                arrival[net] + graph.wire.delay(net)
                + cell.sequential.setup_ps + clock.skew_ps - borrow,
            )
    return worst


def monte_carlo_min_period(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float = 0.05,
    samples: int = 200,
    seed: int = 1,
    wire: WireParasitics | None = None,
    batched: bool = True,
) -> np.ndarray:
    """Sample minimum periods with independently perturbed gate delays.

    The brute-force cross-check for :func:`analyze_statistical`: each
    sample scales every gate arc's delay by its own Gaussian draw and
    re-runs a deterministic arrival propagation.

    ``batched=True`` (the default) runs all samples as one matrix pass
    through the vectorized engine (:mod:`repro.sta.array`); the result
    is bitwise identical to the sequential loop, which remains available
    as ``batched=False`` and as the oracle the equivalence tests compare
    against.
    """
    if samples < 1:
        raise TimingError("need at least one sample")
    if batched:
        return monte_carlo_min_period_batched(
            module, library, clock, sigma_fraction=sigma_fraction,
            samples=samples, seed=seed, wire=wire,
        )
    graph = TimingGraph(module, library, wire)
    seq_names = graph.sequential_cell_names()
    order = topological_order(module, seq_names)
    gate_stats = _gate_delay_stats(graph, module, sigma_fraction)
    keys = sorted(gate_stats)
    nominals = np.array([gate_stats[k][0] for k in keys])
    rng = np.random.default_rng(seed)
    periods = np.empty(samples)

    start_nets = graph.start_nets()
    seq_info = []
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        seq_info.append((inst, cell))

    for s in range(samples):
        draw = rng.normal(1.0, sigma_fraction, size=len(keys))
        delay_of = dict(zip(keys, np.maximum(nominals * draw, 0.0)))
        arrival: dict[str, float] = {}
        for net, kind in start_nets.items():
            if kind == "input":
                arrival[net] = 0.0
        for inst, cell in seq_info:
            jitter = rng.normal(1.0, sigma_fraction)
            for net in inst.outputs.values():
                arrival[net] = max(cell.sequential.clk_to_q_ps * jitter, 0.0)
        for inst_name in order:
            inst = module.instance(inst_name)
            cell = graph.cell_of(inst_name)
            if cell.is_sequential:
                continue
            out_nets = list(inst.outputs.values())
            if not out_nets:
                continue
            best = -math.inf
            for pin, in_net in inst.inputs.items():
                at = (
                    arrival[in_net]
                    + graph.wire.delay(in_net)
                    + delay_of[(inst_name, pin)]
                )
                best = max(best, at)
            for net in out_nets:
                arrival[net] = best
        worst = -math.inf
        for kind, detail in graph.endpoints():
            if kind == "port":
                worst = max(
                    worst,
                    arrival[str(detail)] + graph.wire.delay(str(detail)),
                )
            else:
                inst_name, pin = detail
                inst = module.instance(inst_name)
                cell = graph.cell_of(inst_name)
                net = inst.inputs[pin]
                borrow = (
                    clock.borrow_window_ps
                    if cell.sequential.transparent else 0.0
                )
                worst = max(
                    worst,
                    arrival[net] + graph.wire.delay(net)
                    + cell.sequential.setup_ps + clock.skew_ps - borrow,
                )
        periods[s] = worst
    return periods
