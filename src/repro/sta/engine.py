"""The static timing analysis engine.

Implements the cycle-time accounting of Section 3: "the length of the
critical path is a function of gate delays, wiring delays, set-up and
hold-times, clock-to-Q ... and clock skew".  Arrival times (max and min)
propagate topologically through the combinational graph; every endpoint
contributes a minimum feasible period

    period >= clk_to_q + logic + wire + setup + skew - borrow

and the engine reports the binding endpoint, its path, and the breakdown
into exactly those components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.cells.library import CellLibrary
from repro.par.memo import arc_eval
from repro.sta.clocking import Clock
from repro.sta.timing_graph import TimingError, TimingGraph, WireParasitics

if TYPE_CHECKING:
    from repro.sta.array import ArrayState

#: Transition time assumed at module inputs and register outputs.
DEFAULT_INPUT_SLEW_PS = 20.0


class ConvergenceError(TimingError):
    """Iterative period solving failed to converge.

    A distinct subclass so the robustness layer can tell a retryable
    convergence stall apart from structural timing problems (undriven
    logic, impossible skew budgets), which retrying cannot fix.
    """


class PathCycleError(TimingError):
    """A critical-path backtrace revisited a net: its trace is corrupt.

    A well-formed trace is acyclic, so a walk takes at most one step per
    net; past that the walk raises this instead of looping forever.
    """


def _finite_guard_active() -> bool:
    """Whether analyze should reject non-finite arrivals.

    Deferred import: :mod:`repro.robust.guards` (the guard registry)
    imports the sizing layer, which imports this module, so a top-level
    import would cycle.  The lookup is one ``sys.modules`` hit per
    :func:`analyze` call.
    """
    from repro.robust.guards import guard_enabled

    return guard_enabled("finite")


@dataclass(frozen=True)
class PathStep:
    """One gate traversal on the critical path."""

    instance: str
    cell: str
    through_pin: str
    delay_ps: float
    arrival_ps: float


@dataclass(frozen=True)
class EndpointTiming:
    """Timing at one endpoint.

    Attributes:
        kind: ``"port"`` or ``"register"``.
        name: output-port name or ``instance.pin``.
        data_arrival_ps: combinational arrival at the endpoint, including
            the launch clk->Q for register-launched paths.
        min_period_ps: smallest period satisfying this endpoint's setup
            constraint (including skew and capture overhead, net of any
            latch borrowing).
        launch_overhead_ps: clk->Q of the launching register (0 for
            input-launched paths).
        capture_overhead_ps: setup of the capturing register (0 for port
            endpoints).
        skew_ps: skew charged against this path.
        borrow_ps: latch time-borrowing credit applied.
    """

    kind: str
    name: str
    data_arrival_ps: float
    min_period_ps: float
    launch_overhead_ps: float
    capture_overhead_ps: float
    skew_ps: float
    borrow_ps: float


@dataclass(frozen=True)
class HoldViolation:
    """A fast path failing its hold check at an endpoint."""

    endpoint: str
    min_arrival_ps: float
    required_ps: float

    @property
    def slack_ps(self) -> float:
        return self.min_arrival_ps - self.required_ps


@dataclass
class TimingReport:
    """Full result of one STA run.

    Attributes:
        min_period_ps: smallest feasible clock period.
        critical: the binding endpoint's timing.
        critical_path: gate-by-gate trace to the binding endpoint.
        endpoints: all endpoint timings, worst first.
        hold_violations: fast-path failures at the analysed clock.
        clock: the clock the run was performed against.
    """

    min_period_ps: float
    critical: EndpointTiming
    critical_path: list[PathStep]
    endpoints: list[EndpointTiming]
    hold_violations: list[HoldViolation]
    clock: Clock

    @property
    def max_frequency_mhz(self) -> float:
        return 1.0e6 / self.min_period_ps

    @property
    def logic_delay_ps(self) -> float:
        """Pure combinational delay on the critical path (no overheads)."""
        return (
            self.critical.data_arrival_ps - self.critical.launch_overhead_ps
        )

    def worst_slack_ps(self, period_ps: float | None = None) -> float:
        """Setup slack at a given period (default: the analysed clock's)."""
        period = period_ps if period_ps is not None else self.clock.period_ps
        return period - self.min_period_ps

    def meets(self, period_ps: float | None = None) -> bool:
        """True if setup timing closes at the period (holds not included)."""
        return self.worst_slack_ps(period_ps) >= 0.0

    def overhead_fraction(self) -> float:
        """Fraction of the minimum period spent outside logic.

        This is the "pipelining overhead" quantity the paper estimates at
        ~30% for ASICs and ~20% for custom (Section 4).
        """
        return 1.0 - self.logic_delay_ps / self.min_period_ps


def analyze(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
    delay_derate: float = 1.0,
) -> TimingReport:
    """Run STA on a mapped netlist.

    Args:
        module: netlist to analyse.
        library: its cell library.
        clock: clock domain (period, skew, borrowing policy).
        wire: optional wire parasitics from the physical layer.
        input_slew_ps: transition time assumed at path starts.
        input_arrival_ps: arrival time of module inputs relative to the
            launching clock edge.
        output_load_ff: load on each output port.
        delay_derate: multiplier applied to every cell and wire delay --
            run at a process corner by passing that corner's derate
            (Section 8: the worst-case corner is what ASIC libraries
            quote; pass :attr:`ProcessCorner.delay_derate`).

    Raises:
        TimingError: if the netlist has no endpoints or undriven logic.
    """
    if not (delay_derate > 0.0) or math.isinf(delay_derate):
        raise TimingError(
            f"delay derate must be a positive finite number, "
            f"got {delay_derate}"
        )
    finite_guard = _finite_guard_active()
    obs.count("sta.analyze.calls")
    graph = TimingGraph(module, library, wire, output_load_ff)
    seq_names = graph.sequential_cell_names()
    order = topological_order(module, seq_names)

    arrival: dict[str, float] = {}
    min_arrival: dict[str, float] = {}
    slew: dict[str, float] = {}
    trace: dict[str, tuple[str, str] | None] = {}

    for net, kind in graph.start_nets().items():
        if kind == "input":
            arrival[net] = input_arrival_ps
            min_arrival[net] = input_arrival_ps
        trace[net] = None
        slew[net] = input_slew_ps

    launch_q: dict[str, float] = {}
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        for net in inst.outputs.values():
            clk_to_q = cell.sequential.clk_to_q_ps * delay_derate
            arrival[net] = clk_to_q
            min_arrival[net] = clk_to_q
            launch_q[net] = clk_to_q

    at_acc = 0.0
    for inst_name in order:
        inst = module.instance(inst_name)
        cell = graph.cell_of(inst_name)
        if cell.is_sequential:
            continue
        out_nets = list(inst.outputs.values())
        if not out_nets:
            continue
        load = graph.instance_load_ff(inst_name)
        best_at = None
        best_pin = None
        worst_slew = 0.0
        least_at = None
        for pin, in_net in inst.inputs.items():
            if in_net not in arrival:
                raise TimingError(
                    f"net {in_net!r} feeding {inst_name} has no arrival; "
                    "undriven or floating logic"
                )
            wire_d = graph.wire.delay(in_net) * delay_derate
            delay, out_slew = arc_eval(cell.arc(pin), load, slew[in_net])
            delay *= delay_derate
            at = arrival[in_net] + wire_d + delay
            m_at = min_arrival[in_net] + wire_d + delay
            at_acc += at
            if best_at is None or at > best_at:
                best_at = at
                best_pin = pin
                worst_slew = out_slew
            if least_at is None or m_at < least_at:
                least_at = m_at
        for net in out_nets:
            arrival[net] = best_at
            min_arrival[net] = least_at
            slew[net] = worst_slew
            trace[net] = (inst_name, best_pin)

    if finite_guard and not math.isfinite(at_acc):
        # A NaN/Inf poisoned the accumulator somewhere; rescan (cold path)
        # to name the first offending pin.  A NaN loses every max()
        # comparison, so without this check it would be silently shadowed
        # by a healthy sibling path.
        for inst_name in order:
            inst = module.instance(inst_name)
            cell = graph.cell_of(inst_name)
            if cell.is_sequential or not inst.outputs:
                continue
            load = graph.instance_load_ff(inst_name)
            for pin, in_net in inst.inputs.items():
                at = (
                    arrival[in_net]
                    + graph.wire.delay(in_net) * delay_derate
                    + cell.delay_ps(pin, load, slew[in_net]) * delay_derate
                )
                if not math.isfinite(at):
                    raise TimingError(
                        f"non-finite arrival through {inst_name}.{pin} "
                        f"on net {in_net!r}; check the delay tables"
                    )
        raise TimingError("non-finite arrival in timing propagation")

    return build_report(
        graph, clock, arrival, min_arrival, trace, launch_q,
        delay_derate=delay_derate, finite_guard=finite_guard,
    )


def build_report(
    graph: TimingGraph,
    clock: Clock,
    arrival: dict[str, float],
    min_arrival: dict[str, float],
    trace: dict[str, tuple[str, str] | None],
    launch_q: dict[str, float],
    delay_derate: float = 1.0,
    finite_guard: bool = True,
) -> TimingReport:
    """Assemble a :class:`TimingReport` from propagated arrivals.

    Shared by :func:`analyze` and the array engine
    (:mod:`repro.sta.array`), so both produce reports through the same
    endpoint accounting, sort order and path walk.
    """
    module = graph.module
    endpoints: list[EndpointTiming] = []
    end_trace_net: dict[str, str] = {}
    hold_violations: list[HoldViolation] = []
    for kind, detail in graph.endpoints():
        if kind == "port":
            net = str(detail)
            if net not in arrival:
                raise TimingError(f"output port {net!r} is undriven")
            at = arrival[net] + graph.wire.delay(net) * delay_derate
            ep = EndpointTiming(
                kind="port",
                name=net,
                data_arrival_ps=at,
                min_period_ps=at,
                launch_overhead_ps=_launch_of(net, trace, launch_q, module),
                capture_overhead_ps=0.0,
                skew_ps=0.0,
                borrow_ps=0.0,
            )
            end_trace_net[ep.name] = net
        else:
            inst_name, pin = detail
            inst = module.instance(inst_name)
            cell = graph.cell_of(inst_name)
            net = inst.inputs[pin]
            if net not in arrival:
                raise TimingError(
                    f"register {inst_name} data pin {pin} is undriven"
                )
            at = arrival[net] + graph.wire.delay(net) * delay_derate
            borrow = (
                clock.borrow_window_ps
                if cell.sequential.transparent
                else 0.0
            )
            setup = cell.sequential.setup_ps * delay_derate
            min_period = at + setup + clock.skew_ps - borrow
            ep = EndpointTiming(
                kind="register",
                name=f"{inst_name}.{pin}",
                data_arrival_ps=at,
                min_period_ps=max(min_period, 1e-3),
                launch_overhead_ps=_launch_of(net, trace, launch_q, module),
                capture_overhead_ps=setup,
                skew_ps=clock.skew_ps,
                borrow_ps=borrow,
            )
            end_trace_net[ep.name] = net
            m_at = min_arrival[net] + graph.wire.delay(net) * delay_derate
            required = cell.sequential.hold_ps * delay_derate + clock.skew_ps
            if m_at < required:
                hold_violations.append(
                    HoldViolation(
                        endpoint=ep.name,
                        min_arrival_ps=m_at,
                        required_ps=required,
                    )
                )
        endpoints.append(ep)

    if not endpoints:
        raise TimingError(f"module {module.name} has no timing endpoints")
    bad = next(
        (e for e in endpoints if not math.isfinite(e.min_period_ps)), None
    ) if finite_guard else None
    if bad is not None:
        raise TimingError(
            f"endpoint {bad.name!r} has a non-finite required period; "
            "check the library delay tables for NaN/Inf entries"
        )
    endpoints.sort(key=lambda e: e.min_period_ps, reverse=True)
    critical = endpoints[0]
    path = _walk_path(module, trace, end_trace_net[critical.name], arrival)
    return TimingReport(
        min_period_ps=critical.min_period_ps,
        critical=critical,
        critical_path=path,
        endpoints=endpoints,
        hold_violations=hold_violations,
        clock=clock,
    )


class ObjectClockRunner:
    """``run(clock) -> TimingReport`` as a fresh :func:`analyze` per clock.

    The object-engine counterpart of
    :class:`repro.sta.array.ArrayClockRunner`, with the same
    :meth:`min_period_ps`.  The last report is kept, so asking for the
    period and then the report at one clock analyses once.
    """

    def __init__(self, module: Module, library: CellLibrary,
                 wire: WireParasitics | None = None,
                 **analyze_kwargs) -> None:
        self._args = (module, library)
        self._kwargs = dict(analyze_kwargs, wire=wire)
        self._last: TimingReport | None = None

    def __call__(self, clock: Clock) -> TimingReport:
        if self._last is None or self._last.clock != clock:
            self._last = analyze(*self._args, clock, **self._kwargs)
        return self._last

    def min_period_ps(self, clock: Clock) -> float:
        return self(clock).min_period_ps


def clock_runner(
    module: Module,
    library: CellLibrary,
    wire: WireParasitics | None = None,
    use_array: bool = True,
    check_array: bool = False,
    state: ArrayState | None = None,
    **analyze_kwargs,
):
    """``run(clock) -> TimingReport`` for one netlist at many clocks.

    ``use_array=True`` shares one compiled propagation across every
    call (:func:`repro.sta.array.clock_analyzer`, which ``check_array``
    verifies against the object engine; ``state`` hands it an already
    propagated :class:`~repro.sta.array.ArrayState` of the netlist);
    otherwise it is an :class:`ObjectClockRunner`.  Either runner also
    answers ``run.min_period_ps(clock)``.
    """
    if use_array:
        from repro.sta.array import clock_analyzer

        return clock_analyzer(
            module, library, wire=wire, check=check_array, state=state,
            **analyze_kwargs,
        )
    return ObjectClockRunner(module, library, wire=wire, **analyze_kwargs)


def solve_min_period(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    tolerance_ps: float = 0.1,
    max_iterations: int = 30,
    use_array: bool = True,
    check_array: bool = False,
    state: ArrayState | None = None,
    **analyze_kwargs,
) -> TimingReport:
    """Self-consistent minimum period when skew/borrowing scale with it.

    Section 4.1 frames skew budgets as *percentages of the cycle* (10%
    ASIC, 5% custom), so the binding constraint is

        period = clk_to_q + logic + setup + f_skew * period - f_borrow * period

    This iterates :func:`analyze`, re-deriving the absolute skew and
    borrow windows at each achieved period, to the fixed point.  It
    converges geometrically because the logic delay does not depend on
    the period.

    ``use_array=True`` (the default) runs the iteration over the
    vectorized engine (:mod:`repro.sta.array`): arrival propagation is
    clock-independent, so the fixed point costs one compile+propagate,
    a vectorized endpoint pass per step and one report, for the clock
    it returns, bitwise equal to the object engine.  ``state`` (an
    already propagated :class:`~repro.sta.array.ArrayState` of this
    netlist, e.g. a sizing session's) skips the compile.
    ``check_array=True`` additionally verifies every step against the
    object engine.

    Raises:
        TimingError: if the constraint cannot close (overheads consume
            the whole cycle) or an accepted period is non-finite.
        ConvergenceError: if iteration fails to converge within
            ``max_iterations`` steps.
    """
    if tolerance_ps <= 0 or max_iterations < 0:
        raise TimingError("tolerance must be positive and iterations >= 0")
    profiling = obs.enabled()
    start_s = obs.MONOTONIC() if profiling else 0.0
    run = clock_runner(module, library, wire, use_array=use_array,
                       check_array=check_array, state=state,
                       **analyze_kwargs)
    period = run.min_period_ps(clock)
    iterations = 1
    for _ in range(max_iterations):
        if not math.isfinite(period):
            raise TimingError(
                f"period iteration accepted a non-finite period ({period})"
            )
        if clock.skew_fraction + clock.borrow_fraction >= 1.0:
            raise TimingError("skew and borrow fractions consume the cycle")
        current = clock.with_period(period)
        new_period = run.min_period_ps(current)
        iterations += 1
        if abs(new_period - period) <= tolerance_ps:
            report = run(current)
            if profiling:
                obs.count("sta.solve_min_period.calls")
                obs.observe("sta.solve_min_period.iterations", iterations)
                obs.observe(
                    "sta.solve_min_period.ms",
                    (obs.MONOTONIC() - start_s) * 1e3,
                )
            return report
        period = new_period
    raise ConvergenceError(
        f"period iteration did not converge within {max_iterations} steps"
    )


def _launch_of(
    net: str,
    trace: dict[str, tuple[str, str] | None],
    launch_q: dict[str, float],
    module: Module,
) -> float:
    """Clk->Q overhead of the register launching this path, if any."""
    current = net
    for _ in range(len(trace) + 1):
        if current in launch_q:
            return launch_q[current]
        step = trace.get(current)
        if step is None:
            return 0.0
        inst_name, pin = step
        current = module.instance(inst_name).inputs[pin]
    raise PathCycleError(f"launch backtrace from net {net!r} loops")


def _walk_path(
    module: Module,
    trace: dict[str, tuple[str, str] | None],
    end_net: str,
    arrival: dict[str, float],
) -> list[PathStep]:
    steps: list[PathStep] = []
    current = end_net
    for _ in range(len(trace) + 1):
        step = trace.get(current)
        if step is None:
            break
        inst_name, pin = step
        inst = module.instance(inst_name)
        prev_net = inst.inputs[pin]
        steps.append(
            PathStep(
                instance=inst_name,
                cell=inst.cell_name,
                through_pin=pin,
                delay_ps=arrival[current] - arrival.get(prev_net, 0.0),
                arrival_ps=arrival[current],
            )
        )
        current = prev_net
    else:
        raise PathCycleError(f"critical-path walk from net {end_net!r} loops")
    steps.reverse()
    return steps
