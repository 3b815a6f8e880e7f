"""Incremental static timing analysis over sizing moves.

A :class:`TimingSession` binds a module/library/clock once, pays for one
full arrival propagation up front, and then re-propagates only the
affected cone on each sizing move.  A drive swap on instance ``g``
changes:

* ``g``'s own arc delays (new cell, same loads), and
* the loads of every net feeding ``g`` (its input pin caps changed),
  which perturbs the *drivers* of those nets.

So the re-propagation seeds are ``{g} + combinational drivers of g's
input nets``, walked forward in cached topological order; propagation
stops early wherever recomputed values are unchanged.  Because the
per-instance arithmetic is the same expression over the same inputs as
:func:`repro.sta.engine.analyze` (including the shared memoized arc
evaluation and from-scratch net-load sums), unchanged means *bitwise*
unchanged, and the session state is exactly what a full analysis would
produce -- ``check=True`` asserts that after every commit.

:meth:`trial` evaluates a move and rolls it back through an undo
journal; :meth:`commit` applies it and returns the resulting
:class:`~repro.sta.engine.TimingReport` (built by the engine's own
``build_report``, so sizing loops reuse it instead of re-analyzing).

Topology changes (buffering, resynthesis) invalidate a session: build a
new one.  Sequential cells cannot be resized through a session.

:class:`ArrayTimingSession` is the drop-in vectorized variant: it
compiles the timing graph once (:mod:`repro.sta.array`) and re-runs the
whole level sweep per move, refreshing only the swapped instances'
coefficient slots.  Its :meth:`~ArrayTimingSession.trials` scores many
independent moves in one batched sweep, one column per move, and a
commit of a scored move adopts that column instead of sweeping again.
Designs the array engine cannot reproduce exactly degrade transparently
to a :class:`TimingSession`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.par.memo import arc_eval
from repro.sta.clocking import Clock
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW_PS,
    TimingReport,
    _finite_guard_active,
    analyze,
    build_report,
)
from repro.sta.timing_graph import TimingError, TimingGraph, WireParasitics

#: Journal marker for "this net's load was not cached before the move".
_MISSING = object()


class SessionCheckError(TimingError):
    """Incremental and full STA disagreed (``check=True`` violation)."""


class TimingSession:
    """Incremental STA state for one netlist under sizing moves.

    Args:
        module: netlist to analyse; the session mutates it on commits.
        library: its cell library.
        clock: clock domain.
        wire: optional wire parasitics.
        input_slew_ps: transition time assumed at path starts.
        input_arrival_ps: arrival of module inputs vs the launch edge.
        output_load_ff: load on each output port (library default if
            None).
        delay_derate: corner derate, as in :func:`analyze`.
        check: when True, every commit (and construction) re-runs the
            full engine and raises :class:`SessionCheckError` on any
            divergence -- the slow belt-and-braces mode the equivalence
            tests run in.
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        clock: Clock,
        wire: WireParasitics | None = None,
        input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
        input_arrival_ps: float = 0.0,
        output_load_ff: float | None = None,
        delay_derate: float = 1.0,
        check: bool = False,
    ) -> None:
        if not (delay_derate > 0.0) or math.isinf(delay_derate):
            raise TimingError(
                f"delay derate must be a positive finite number, "
                f"got {delay_derate}"
            )
        self.module = module
        self.library = library
        self.clock = clock
        self._wire = wire
        self._input_slew = input_slew_ps
        self._input_arrival = input_arrival_ps
        self._derate = delay_derate
        self._check = check
        self._graph = TimingGraph(module, library, wire, output_load_ff)
        seq_names = self._graph.sequential_cell_names()
        self._order = topological_order(module, seq_names)
        self._pos = {name: i for i, name in enumerate(self._order)}
        self._endpoint_list = self._graph.endpoints()
        self._succ = self._build_successors()
        self._ep_fast = self._build_endpoint_cache()
        self._arrival: dict[str, float] = {}
        self._min_arrival: dict[str, float] = {}
        self._slew: dict[str, float] = {}
        self._trace: dict[str, tuple[str, str] | None] = {}
        self._launch_q: dict[str, float] = {}
        self._loads: dict[str, float] = {}
        self._full_propagate()
        if self._check:
            self._verify_against_full()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_successors(self) -> dict[str, tuple[str, ...]]:
        """Combinational fanout instances per instance (dedup, ordered)."""
        succ: dict[str, tuple[str, ...]] = {}
        for inst in self.module.iter_instances():
            seen: dict[str, None] = {}
            for net in inst.outputs.values():
                for sink in self.module.sinks_of(net):
                    if is_port_ref(sink):
                        continue
                    sink_inst, _pin = sink
                    if self._graph.cell_of(sink_inst).is_sequential:
                        continue
                    seen[sink_inst] = None
            succ[inst.name] = tuple(seen)
        return succ

    def _build_endpoint_cache(self) -> list[tuple]:
        """Per-endpoint ``(net, wire_d, setup, borrow, is_reg)`` rows.

        Registers are never resized through a session, so their setup
        and borrow terms are fixed for its lifetime.
        """
        rows: list[tuple] = []
        for kind, detail in self._endpoint_list:
            if kind == "port":
                net = str(detail)
                rows.append(
                    (net, self._graph.wire.delay(net) * self._derate,
                     0.0, 0.0, False)
                )
            else:
                inst_name, pin = detail
                cell = self._graph.cell_of(inst_name)
                net = self.module.instance(inst_name).inputs[pin]
                borrow = (
                    self.clock.borrow_window_ps
                    if cell.sequential.transparent
                    else 0.0
                )
                rows.append(
                    (net, self._graph.wire.delay(net) * self._derate,
                     cell.sequential.setup_ps * self._derate, borrow, True)
                )
        return rows

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _net_load(self, net: str) -> float:
        load = self._loads.get(net)
        if load is None:
            load = self._graph.net_load_ff(net)
            self._loads[net] = load
        return load

    def _eval_instance(
        self, name: str, journal: dict | None
    ) -> tuple[bool, float]:
        """Recompute one instance's output timing; True if it changed."""
        inst = self.module.instance(name)
        cell = self._graph.cell_of(name)
        if cell.is_sequential:
            return False, 0.0
        out_nets = list(inst.outputs.values())
        if not out_nets:
            return False, 0.0
        load = 0.0
        for net in out_nets:
            load += self._net_load(net)
        arrival = self._arrival
        min_arrival = self._min_arrival
        slew = self._slew
        derate = self._derate
        wire = self._graph.wire
        best_at = None
        best_pin = None
        worst_slew = 0.0
        least_at = None
        acc = 0.0
        for pin, in_net in inst.inputs.items():
            if in_net not in arrival:
                raise TimingError(
                    f"net {in_net!r} feeding {name} has no arrival; "
                    "undriven or floating logic"
                )
            wire_d = wire.delay(in_net) * derate
            delay, out_slew = arc_eval(cell.arc(pin), load, slew[in_net])
            delay *= derate
            at = arrival[in_net] + wire_d + delay
            m_at = min_arrival[in_net] + wire_d + delay
            acc += at
            if best_at is None or at > best_at:
                best_at = at
                best_pin = pin
                worst_slew = out_slew
            if least_at is None or m_at < least_at:
                least_at = m_at
        new_trace = (name, best_pin)
        trace = self._trace
        changed = False
        for net in out_nets:
            if journal is not None and net not in journal["nets"]:
                journal["nets"][net] = (
                    arrival.get(net), min_arrival.get(net),
                    slew.get(net), trace.get(net),
                )
            if not (
                arrival.get(net) == best_at
                and min_arrival.get(net) == least_at
                and slew.get(net) == worst_slew
                and trace.get(net) == new_trace
            ):
                changed = True
            arrival[net] = best_at
            min_arrival[net] = least_at
            slew[net] = worst_slew
            trace[net] = new_trace
        return changed, acc

    def _full_propagate(self) -> None:
        graph = self._graph
        self._arrival.clear()
        self._min_arrival.clear()
        self._slew.clear()
        self._trace.clear()
        self._launch_q.clear()
        for net, kind in graph.start_nets().items():
            if kind == "input":
                self._arrival[net] = self._input_arrival
                self._min_arrival[net] = self._input_arrival
            self._trace[net] = None
            self._slew[net] = self._input_slew
        for name in graph.sequential_instances():
            cell = graph.cell_of(name)
            inst = self.module.instance(name)
            for net in inst.outputs.values():
                clk_to_q = cell.sequential.clk_to_q_ps * self._derate
                self._arrival[net] = clk_to_q
                self._min_arrival[net] = clk_to_q
                self._launch_q[net] = clk_to_q
        acc = 0.0
        for name in self._order:
            _, a = self._eval_instance(name, None)
            acc += a
        self._check_finite(acc, self._order)

    def _propagate_from(
        self, sources: set[str], journal: dict | None
    ) -> list[str]:
        """Worklist re-propagation in topological position order."""
        heap: list[tuple[int, str]] = []
        queued: set[str] = set()
        for name in sources:
            pos = self._pos.get(name)
            if pos is not None and name not in queued:
                queued.add(name)
                heapq.heappush(heap, (pos, name))
        acc = 0.0
        recomputed: list[str] = []
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            changed, a = self._eval_instance(name, journal)
            acc += a
            recomputed.append(name)
            if changed:
                for succ in self._succ.get(name, ()):
                    if succ not in queued:
                        queued.add(succ)
                        heapq.heappush(heap, (self._pos[succ], succ))
        self._check_finite(acc, recomputed)
        return recomputed

    def _check_finite(self, at_acc: float, names) -> None:
        """Engine-equivalent finite-arrival guard over recomputed cells."""
        if math.isfinite(at_acc) or not _finite_guard_active():
            return
        for name in names:
            inst = self.module.instance(name)
            cell = self._graph.cell_of(name)
            if cell.is_sequential or not inst.outputs:
                continue
            load = 0.0
            for net in inst.outputs.values():
                load += self._net_load(net)
            for pin, in_net in inst.inputs.items():
                at = (
                    self._arrival[in_net]
                    + self._graph.wire.delay(in_net) * self._derate
                    + cell.delay_ps(pin, load, self._slew[in_net])
                    * self._derate
                )
                if not math.isfinite(at):
                    raise TimingError(
                        f"non-finite arrival through {name}.{pin} "
                        f"on net {in_net!r}; check the delay tables"
                    )
        raise TimingError("non-finite arrival in timing propagation")

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _apply(
        self, instance: str, cell_name: str, journal: dict | None
    ) -> None:
        inst = self.module.instance(instance)
        old_cell = self._graph.cell_of(instance)
        new_cell = self.library.get(cell_name)
        if old_cell.is_sequential or new_cell.is_sequential:
            raise TimingError(
                f"cannot resize {instance!r} through a TimingSession: "
                "sequential cells are fixed for a session's lifetime"
            )
        if journal is not None:
            journal["cell"] = (instance, inst.cell_name)
        self.module.replace_cell(instance, cell_name)
        self._graph.rebind(instance)
        sources = {instance}
        for in_net in set(inst.inputs.values()):
            # Input pin caps changed, so this net's load -- and hence its
            # driver's delay -- changed.  Recompute the load from scratch
            # (same summation order as a fresh TimingGraph would use, so
            # incremental stays bitwise-equal to full analysis).
            if journal is not None and in_net not in journal["loads"]:
                journal["loads"][in_net] = self._loads.get(in_net, _MISSING)
            self._loads[in_net] = self._graph.net_load_ff(in_net)
            driver = self.module.driver_of(in_net)
            if (
                driver is not None
                and not is_port_ref(driver)
                and not self._graph.cell_of(driver[0]).is_sequential
            ):
                sources.add(driver[0])
        recomputed = self._propagate_from(sources, journal)
        if obs.enabled():
            obs.observe("par.session.cone_size", len(recomputed))

    def _undo(self, journal: dict) -> None:
        if journal["cell"] is not None:
            instance, old_cell_name = journal["cell"]
            self.module.replace_cell(instance, old_cell_name)
            self._graph.rebind(instance)
        for net, value in journal["loads"].items():
            if value is _MISSING:
                self._loads.pop(net, None)
            else:
                self._loads[net] = value
        for net, (at, m_at, sl, tr) in journal["nets"].items():
            self._arrival[net] = at
            self._min_arrival[net] = m_at
            self._slew[net] = sl
            self._trace[net] = tr

    def trial(self, instance: str, cell_name: str) -> float:
        """Minimum period if the swap were made; session state restored.

        Raises:
            TimingError: if the move propagates a non-finite arrival
                (state is still restored before the raise).
        """
        obs.count("par.session.trials")
        if self.module.instance(instance).cell_name == cell_name:
            return self.min_period_ps()
        journal: dict = {"nets": {}, "loads": {}, "cell": None}
        try:
            self._apply(instance, cell_name, journal)
            return self.min_period_ps()
        finally:
            self._undo(journal)

    def trials(self, moves) -> list[float]:
        """:meth:`trial` of each ``(instance, cell)`` move, in order."""
        return [self.trial(instance, cell) for instance, cell in moves]

    def commit(self, instance: str, cell_name: str) -> TimingReport:
        """Apply a swap, re-propagate its cone, return the new report."""
        obs.count("par.session.commits")
        if self.module.instance(instance).cell_name != cell_name:
            self._apply(instance, cell_name, None)
        report = self.report()
        if self._check:
            self._verify_against_full()
        return report

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def min_period_ps(self) -> float:
        """Binding minimum period over all endpoints (cheap trial form)."""
        worst = None
        arrival = self._arrival
        skew = self.clock.skew_ps
        for net, wire_d, setup, borrow, is_reg in self._ep_fast:
            if net not in arrival:
                raise TimingError(f"endpoint net {net!r} is undriven")
            at = arrival[net] + wire_d
            if is_reg:
                mp = at + setup + skew - borrow
                if mp < 1e-3:
                    mp = 1e-3
            else:
                mp = at
            if worst is None or mp > worst:
                worst = mp
        if worst is None:
            raise TimingError(
                f"module {self.module.name} has no timing endpoints"
            )
        return worst

    def report(self) -> TimingReport:
        """Full :class:`TimingReport` from the session's cached state."""
        return build_report(
            self._graph,
            self.clock,
            self._arrival,
            self._min_arrival,
            self._trace,
            self._launch_q,
            delay_derate=self._derate,
            finite_guard=_finite_guard_active(),
            endpoint_list=self._endpoint_list,
        )

    # ------------------------------------------------------------------
    # Equivalence checking
    # ------------------------------------------------------------------

    def _verify_against_full(self) -> None:
        """Assert session state equals a from-scratch full analysis."""
        fresh = TimingSession(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._graph.output_load_ff,
            delay_derate=self._derate,
            check=False,
        )
        for label, mine, theirs in (
            ("arrival", self._arrival, fresh._arrival),
            ("min_arrival", self._min_arrival, fresh._min_arrival),
            ("slew", self._slew, fresh._slew),
            ("trace", self._trace, fresh._trace),
        ):
            if set(mine) != set(theirs):
                raise SessionCheckError(
                    f"incremental {label} net set diverged from full STA"
                )
            for net, value in mine.items():
                other = theirs[net]
                if value != other and not _close(value, other):
                    raise SessionCheckError(
                        f"incremental {label}[{net!r}] = {value} but full "
                        f"STA gives {other}"
                    )
        full = analyze(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._graph.output_load_ff,
            delay_derate=self._derate,
        )
        session_period = self.min_period_ps()
        if not _close(session_period, full.min_period_ps):
            raise SessionCheckError(
                f"incremental min period {session_period} but full "
                f"analyze() gives {full.min_period_ps}"
            )


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


class ArrayTimingSession:
    """:class:`TimingSession` on the compiled array engine.

    Same constructor and move API.  One
    :class:`~repro.sta.array.CompiledTiming` is paid for up front; a
    sizing move refreshes only the affected instances' coefficient
    slots (the swapped cell plus the drivers of its input nets, whose
    loads changed) and re-runs the vectorized level sweep.  The sweep
    re-times the whole netlist, but it is a handful of numpy passes
    rather than a Python cone walk, and the compile -- the expensive
    part -- is reused across every trial and commit.

    Exactness contract: identical results to :class:`TimingSession`
    (itself bitwise-equal to :func:`repro.sta.engine.analyze`).  When
    the array engine cannot guarantee that -- undriven logic, poisoned
    or unknown arc models, non-finite arithmetic -- the session
    degrades to a delegate :class:`TimingSession`, so callers see the
    object engine's exact values and typed errors either way.
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        clock: Clock,
        wire: WireParasitics | None = None,
        input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
        input_arrival_ps: float = 0.0,
        output_load_ff: float | None = None,
        delay_derate: float = 1.0,
        check: bool = False,
    ) -> None:
        if not (delay_derate > 0.0) or math.isinf(delay_derate):
            raise TimingError(
                f"delay derate must be a positive finite number, "
                f"got {delay_derate}"
            )
        self.module = module
        self.library = library
        self.clock = clock
        self._wire = wire
        self._input_slew = input_slew_ps
        self._input_arrival = input_arrival_ps
        self._output_load = output_load_ff
        self._derate = delay_derate
        self._derates = np.array([delay_derate])
        self._check = check
        self._delegate: TimingSession | None = None
        # (instance, cell) -> (touched names, captured column); see _stage.
        self._staged: dict[tuple[str, str], tuple[frozenset, tuple]] = {}
        # (moves, state) of the last trial sweep since the last commit.
        self._batch: tuple[list, object] | None = None
        from repro.sta.array import _ArrayFallback, compile_timing

        try:
            self._compiled = compile_timing(
                module, library, wire, output_load_ff
            )
            self._state = self._compiled.propagate(
                input_slew_ps, input_arrival_ps, self._derates
            )
        except _ArrayFallback:
            obs.count("sta.array.fallbacks")
            self._degrade()
            return
        self._graph = self._compiled.graph
        if not self._build_endpoint_rows():
            # An endpoint net without a defined arrival: the object
            # engine reports that lazily, so hand the session over.
            self._degrade()
            return
        if self._check:
            self._verify_against_full()

    def _degrade(self) -> None:
        """Swap in a TimingSession delegate (exact errors included)."""
        self._delegate = TimingSession(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._output_load,
            delay_derate=self._derate,
            check=self._check,
        )

    def _build_endpoint_rows(self) -> bool:
        """Vectorized endpoint accounting; False if any net is undefined."""
        defined = set(self._compiled._input_ids.tolist())
        defined.update(self._compiled._reg_ids.tolist())
        defined.update(self._compiled._out_net.tolist())
        nets: list[int] = []
        wire_d: list[float] = []
        setup: list[float] = []
        borrow: list[float] = []
        is_reg: list[bool] = []
        for kind, detail in self._graph.endpoints():
            if kind == "port":
                net = str(detail)
                s = 0.0
                br = 0.0
                reg = False
            else:
                inst_name, pin = detail
                cell = self._graph.cell_of(inst_name)
                net = self.module.instance(inst_name).inputs[pin]
                s = cell.sequential.setup_ps * self._derate
                br = (
                    self.clock.borrow_window_ps
                    if cell.sequential.transparent
                    else 0.0
                )
                reg = True
            nid = self._compiled._net_id(net)
            if nid is None or nid not in defined:
                return False
            nets.append(nid)
            wire_d.append(self._graph.wire.delay(net) * self._derate)
            setup.append(s)
            borrow.append(br)
            is_reg.append(reg)
        self._ep_net = np.asarray(nets, dtype=np.int64)
        self._ep_wire = np.asarray(wire_d)
        self._ep_setup = np.asarray(setup)
        self._ep_borrow = np.asarray(borrow)
        self._ep_isreg = np.asarray(is_reg, dtype=bool)
        return True

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _swap(self, instance: str, cell_name: str) -> tuple[str, ...]:
        """Replace a cell and refresh coefficients; returns touched names."""
        old_cell = self._graph.cell_of(instance)
        new_cell = self.library.get(cell_name)
        if old_cell.is_sequential or new_cell.is_sequential:
            raise TimingError(
                f"cannot resize {instance!r} through a TimingSession: "
                "sequential cells are fixed for a session's lifetime"
            )
        inst = self.module.instance(instance)
        self.module.replace_cell(instance, cell_name)
        self._graph.rebind(instance)
        touched = {instance}
        for in_net in set(inst.inputs.values()):
            driver = self.module.driver_of(in_net)
            if (
                driver is not None
                and not is_port_ref(driver)
                and not self._graph.cell_of(driver[0]).is_sequential
            ):
                touched.add(driver[0])
        self._compiled.refresh(touched)
        return tuple(touched)

    def _restore(self, instance: str, cell_name: str, touched) -> None:
        """Undo a :meth:`_swap`: put the cell back, re-derive its slots."""
        self.module.replace_cell(instance, cell_name)
        self._graph.rebind(instance)
        self._compiled.refresh(touched)

    def _min_periods_of(self, state) -> np.ndarray:
        """Binding minimum period of every batch row of ``state``."""
        if self._ep_net.size == 0:
            raise TimingError(
                f"module {self.module.name} has no timing endpoints"
            )
        at = state.arr[:, self._ep_net] + self._ep_wire
        mp = ((at + self._ep_setup) + self.clock.skew_ps) - self._ep_borrow
        np.maximum(mp, 1e-3, out=mp)
        return np.where(self._ep_isreg, mp, at).max(axis=1)

    def _min_period_of(self, state) -> float:
        return float(self._min_periods_of(state)[0])

    def trial(self, instance: str, cell_name: str) -> float:
        """Minimum period if the swap were made; session state restored."""
        if self._delegate is not None:
            return self._delegate.trial(instance, cell_name)
        obs.count("par.session.trials")
        old = self.module.instance(instance).cell_name
        if old == cell_name:
            return self._min_period_of(self._state)
        from repro.sta.array import _ArrayFallback

        touched = self._swap(instance, cell_name)
        try:
            try:
                state = self._compiled.propagate(
                    self._input_slew, self._input_arrival, self._derates
                )
            except _ArrayFallback:
                obs.count("sta.array.fallbacks")
                # The object engine is the only faithful evaluator of
                # this move (poisoned arcs, NaN shadowing with the
                # finite guard off): a scratch session either raises
                # its exact typed error or yields the exact period.
                scratch = TimingSession(
                    self.module, self.library, self.clock,
                    wire=self._wire,
                    input_slew_ps=self._input_slew,
                    input_arrival_ps=self._input_arrival,
                    output_load_ff=self._output_load,
                    delay_derate=self._derate,
                )
                return scratch.min_period_ps()
            self._batch = ([(instance, cell_name)], state)
            return self._min_period_of(state)
        finally:
            self._restore(instance, old, touched)

    def _stage(self, instance: str, cell_name: str) -> tuple:
        """Coefficients the swap would give its touched arcs (none for a
        no-op swap); session state restored.

        Columns are memoised per move.  A swap changes the coefficients
        of exactly its touched slots (the instance's cell, its input
        drivers' loads), so a column stays bit-for-bit valid until a
        commit touches one of the same slots; :meth:`commit` drops those.
        """
        old = self.module.instance(instance).cell_name
        if old == cell_name:
            return self._compiled.capture(())
        got = self._staged.get((instance, cell_name))
        if got is None:
            obs.count("par.session.stage.misses")
            touched = self._swap(instance, cell_name)
            try:
                column = self._compiled.capture(touched)
            finally:
                self._restore(instance, old, touched)
            got = (frozenset(touched), column)
            self._staged[(instance, cell_name)] = got
        return got[1]

    def trials(self, moves) -> list[float]:
        """:meth:`trial` of each ``(instance, cell)`` move, in one sweep.

        Each move is staged (swapped, its touched arcs captured, undone)
        and becomes one column of a single batched propagate, so the
        level sweep is paid once per call rather than once per move.
        Results are bitwise equal to calling :meth:`trial` per move; if
        any column needs the object engine, every move is re-run through
        :meth:`trial`, which yields its exact period or typed error.
        """
        if self._delegate is not None:
            return self._delegate.trials(moves)
        moves = [(inst, cell) for inst, cell in moves]
        if not moves:
            return []
        from repro.sta.array import ArcOverrides, _ArrayFallback

        try:
            columns = [self._stage(inst, cell) for inst, cell in moves]
            state = self._compiled.propagate(
                self._input_slew, self._input_arrival,
                np.full(len(moves), self._derate),
                ArcOverrides(self._compiled, columns),
            )
        except (_ArrayFallback, TimingError):
            # A column needs the object engine, or the session rejects a
            # move: the per-move loop gives the exact periods, or the
            # error the first failing move raises.
            obs.count("sta.array.fallbacks")
            return [self.trial(inst, cell) for inst, cell in moves]
        obs.count("par.session.trials", len(moves))
        self._batch = (moves, state)
        return self._min_periods_of(state).tolist()

    def commit(self, instance: str, cell_name: str) -> TimingReport:
        """Apply a swap, re-time the netlist, return the new report.

        A move scored by the last :meth:`trial` / :meth:`trials` sweep
        (with no commit since) adopts that sweep's column instead of
        propagating again: the column is bitwise what a propagate after
        this swap alone gives, and it already passed the sweep's checks.
        """
        if self._delegate is not None:
            return self._delegate.commit(instance, cell_name)
        obs.count("par.session.commits")
        from repro.sta.array import _ArrayFallback

        if self.module.instance(instance).cell_name != cell_name:
            adopted = self._scored(instance, cell_name)
            touched = self._swap(instance, cell_name)
            self._batch = None
            self._staged = {
                move: got for move, got in self._staged.items()
                if got[0].isdisjoint(touched)
            }
            if adopted is not None:
                self._state = adopted
            else:
                try:
                    self._state = self._compiled.propagate(
                        self._input_slew, self._input_arrival, self._derates
                    )
                except _ArrayFallback:
                    obs.count("sta.array.fallbacks")
                    self._degrade()
                    return self._delegate.report()
        report = self.report()
        if self._check:
            self._verify_against_full()
        return report

    def _scored(self, instance: str, cell_name: str):
        """The last sweep's state row for this move, or None."""
        if self._batch is None:
            return None
        moves, state = self._batch
        try:
            return state.row(moves.index((instance, cell_name)))
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def min_period_ps(self) -> float:
        """Binding minimum period over all endpoints (cheap trial form)."""
        if self._delegate is not None:
            return self._delegate.min_period_ps()
        return self._min_period_of(self._state)

    def report(self) -> TimingReport:
        """Full :class:`TimingReport` from the session's cached state."""
        if self._delegate is not None:
            return self._delegate.report()
        return self._state.report(self.clock)

    # ------------------------------------------------------------------
    # Equivalence checking
    # ------------------------------------------------------------------

    def _verify_against_full(self) -> None:
        """Assert session state equals a from-scratch full analysis."""
        from repro.sta.array import ArrayCheckError, assert_reports_match

        full = analyze(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._output_load,
            delay_derate=self._derate,
        )
        try:
            assert_reports_match(self.report(), full)
        except ArrayCheckError as exc:
            raise SessionCheckError(str(exc)) from exc
        session_period = self.min_period_ps()
        if not _close(session_period, full.min_period_ps):
            raise SessionCheckError(
                f"incremental min period {session_period} but full "
                f"analyze() gives {full.min_period_ps}"
            )
