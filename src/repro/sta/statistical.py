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


def _endpoint_terms(graph: TimingGraph, module: Module, clock: Clock):
    """Yield each timing endpoint as ``(net, wire_ps, register)``.

    ``register`` is ``None`` for an output port, else the capturing
    register's ``(setup_ps, skew_ps, borrow_ps)``.  Lazy, so a walk that
    checks each endpoint as it goes raises in endpoint order.
    """
    for kind, detail in graph.endpoints():
        if kind == "port":
            net = str(detail)
            yield net, graph.wire.delay(net), None
            continue
        inst_name, pin = detail
        seq = graph.cell_of(inst_name).sequential
        net = module.instance(inst_name).inputs[pin]
        borrow = clock.borrow_window_ps if seq.transparent else 0.0
        yield net, graph.wire.delay(net), (seq.setup_ps, clock.skew_ps, borrow)


def _endpoint_time(arrival: float, wire_ps: float, register) -> float:
    """Minimum period one endpoint needs, summed left to right: arrival
    and wire, then a register's setup and skew less its borrow."""
    t = arrival + wire_ps
    if register is not None:
        setup_ps, skew_ps, borrow_ps = register
        t = t + setup_ps + skew_ps - borrow_ps
    return t


def analyze_statistical(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float = 0.05,
    wire: WireParasitics | None = None,
) -> StatisticalReport:
    """Propagate gate-delay distributions through the timing graph.

    The same walk carries each net's deterministic (sigma = 0) arrival
    beside its mean and variance, so the nominal period folds out of the
    endpoints with plain ``max`` where the distributions use Clark's.

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
    nominal: dict[str, float] = {}
    for net, kind in graph.start_nets().items():
        if kind == "input":
            mean[net] = nominal[net] = 0.0
            var[net] = 0.0
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        for net in inst.outputs.values():
            mean[net] = nominal[net] = cell.sequential.clk_to_q_ps
            var[net] = (sigma_fraction * cell.sequential.clk_to_q_ps) ** 2

    for inst_name in order:
        inst = module.instance(inst_name)
        cell = graph.cell_of(inst_name)
        if cell.is_sequential:
            continue
        out_nets = list(inst.outputs.values())
        if not out_nets:
            continue
        acc_mean = acc_nom = None
        acc_var = 0.0
        for pin, in_net in inst.inputs.items():
            if in_net not in mean:
                raise TimingError(f"net {in_net!r} has no arrival")
            d_mean, d_var = gate_stats[(inst_name, pin)]
            wire_d = graph.wire.delay(in_net)
            cand_mean = mean[in_net] + wire_d + d_mean
            cand_var = var[in_net] + d_var
            cand_nom = nominal[in_net] + wire_d + d_mean
            if acc_mean is None:
                acc_mean, acc_var, acc_nom = cand_mean, cand_var, cand_nom
            else:
                acc_mean, acc_var = clark_max(
                    acc_mean, acc_var, cand_mean, cand_var
                )
                acc_nom = max(acc_nom, cand_nom)
        for net in out_nets:
            mean[net] = acc_mean
            var[net] = acc_var
            nominal[net] = acc_nom

    end_mean = None
    end_var = 0.0
    end_nom = -math.inf
    for net, wire_ps, register in _endpoint_terms(graph, module, clock):
        if net not in mean:
            where = "output port" if register is None else "register input"
            raise TimingError(f"{where} {net!r} undriven")
        m = _endpoint_time(mean[net], wire_ps, register)
        v = var[net]
        end_nom = max(end_nom, _endpoint_time(nominal[net], wire_ps, register))
        if end_mean is None:
            end_mean, end_var = m, v
        else:
            end_mean, end_var = clark_max(end_mean, end_var, m, v)
    if end_mean is None:
        raise TimingError("module has no timing endpoints")

    return StatisticalReport(
        mean_period_ps=end_mean,
        sigma_period_ps=math.sqrt(end_var),
        nominal_period_ps=end_nom,
    )


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

    # Everything a sample reads but does not draw, resolved once:
    # register launch terms and, per combinational gate in topological
    # order, its output nets and (input net, wire delay, arc index).
    start_nets = graph.start_nets()
    launches = [
        (graph.cell_of(name).sequential.clk_to_q_ps,
         tuple(module.instance(name).outputs.values()))
        for name in graph.sequential_instances()
    ]
    arc_index = {key: i for i, key in enumerate(keys)}
    gates = []
    for inst_name in order:
        inst = module.instance(inst_name)
        if graph.cell_of(inst_name).is_sequential or not inst.outputs:
            continue
        gates.append((
            tuple(inst.outputs.values()),
            [(in_net, graph.wire.delay(in_net), arc_index[(inst_name, pin)])
             for pin, in_net in inst.inputs.items()],
        ))
    ends = list(_endpoint_terms(graph, module, clock))

    for s in range(samples):
        draw = rng.normal(1.0, sigma_fraction, size=len(keys))
        delays = np.maximum(nominals * draw, 0.0).tolist()
        arrival: dict[str, float] = {}
        for net, kind in start_nets.items():
            if kind == "input":
                arrival[net] = 0.0
        for clk_to_q_ps, out_nets in launches:
            jitter = rng.normal(1.0, sigma_fraction)
            for net in out_nets:
                arrival[net] = max(clk_to_q_ps * jitter, 0.0)
        for out_nets, arcs in gates:
            best = -math.inf
            for in_net, wire_ps, arc in arcs:
                at = arrival[in_net] + wire_ps + delays[arc]
                best = max(best, at)
            for net in out_nets:
                arrival[net] = best
        worst = -math.inf
        for net, wire_ps, register in ends:
            worst = max(worst, _endpoint_time(arrival[net], wire_ps, register))
        periods[s] = worst
    return periods
