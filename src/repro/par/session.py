"""Timing sessions: static timing analysis over sizing moves.

A session binds a module/library/clock once and answers the questions a
sizing loop asks: what would the minimum period be after this drive swap
(:meth:`~TimingSession.trial`, netlist left as it was), and -- after
making it (:meth:`~TimingSession.commit`) -- what the period is
(:meth:`~TimingSession.min_period_ps`) and which instances lie on the
critical path (:meth:`~TimingSession.critical_instances`).  A full
:meth:`~TimingSession.report` is there too, but a sizing loop needs it
only once, at the end.  Sequential cells cannot be resized through a
session, and topology changes (buffering, resynthesis) invalidate one:
build a new one.

:class:`ArrayTimingSession` is the production engine: it compiles the
timing graph once (:mod:`repro.sta.array`) and re-runs the vectorized
level sweep per move.  Its :meth:`~ArrayTimingSession.trials` prices
each candidate swap without making it, as a column of the coefficients
it would change, and scores them all in one batched sweep; a commit of
a scored move writes that column and adopts its row.
Move sweeps skip min arrivals (no hold timing is read between moves);
the period and the critical path come from the arrays, the path by
walking each net's first-max arc back from the first worst endpoint.
The session starts from one full propagate; after a commit,
:meth:`~ArrayTimingSession.report` and :meth:`~ArrayTimingSession.array_state`
pay for one more, which a period solve can then reuse.

:class:`TimingSession` is the oracle: every trial and commit is a fresh
:func:`repro.sta.engine.analyze`, so its periods, paths, reports and
typed errors are the object engine's by construction.  It backs
``use_array=False``, and designs the array engine cannot reproduce
exactly degrade to it.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.sta.clocking import Clock
from repro.sta.array import (
    UNCHANGED,
    ArrayCheckError,
    ArrayState,
    Endpoints,
    _ArrayFallback,
    assert_reports_match,
    compile_timing,
)
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS, TimingReport, analyze
from repro.sta.timing_graph import TimingError, WireParasitics


class SessionCheckError(TimingError):
    """Array session and full STA disagreed (``check=True`` violation)."""


class TimingSession:
    """Object-engine oracle: one fresh :func:`analyze` per move.

    Args:
        module: netlist to analyse; the session mutates it on commits.
        library: its cell library.
        clock: clock domain.
        wire, input_slew_ps, input_arrival_ps, output_load_ff,
        delay_derate: as in :func:`analyze`.

    Raises:
        TimingError: whatever :func:`analyze` raises on the netlist.
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
    ) -> None:
        self.module = module
        self.library = library
        self.clock = clock
        self._analyze_kwargs = dict(
            wire=wire, input_slew_ps=input_slew_ps,
            input_arrival_ps=input_arrival_ps,
            output_load_ff=output_load_ff, delay_derate=delay_derate,
        )
        self._report = self._analyze()

    def _analyze(self) -> TimingReport:
        return analyze(self.module, self.library, self.clock,
                       **self._analyze_kwargs)

    def _swap(self, instance: str, cell_name: str) -> str:
        """Replace a cell; returns the name it had."""
        old = self.module.instance(instance).cell_name
        if (self.library.get(old).is_sequential
                or self.library.get(cell_name).is_sequential):
            raise TimingError(
                f"cannot resize {instance!r} through a TimingSession: "
                "sequential cells are fixed for a session's lifetime"
            )
        self.module.replace_cell(instance, cell_name)
        return old

    def trial(self, instance: str, cell_name: str) -> float:
        """Minimum period if the swap were made; netlist restored.

        Raises:
            TimingError: as :func:`analyze` on the swapped netlist (the
                netlist is still restored before the raise).
        """
        obs.count("par.session.trials")
        if self.module.instance(instance).cell_name == cell_name:
            return self.min_period_ps()
        old = self._swap(instance, cell_name)
        try:
            return self._analyze().min_period_ps
        finally:
            self.module.replace_cell(instance, old)

    def trials(self, moves) -> list[float]:
        """:meth:`trial` of each ``(instance, cell)`` move, in order."""
        return [self.trial(instance, cell) for instance, cell in moves]

    def commit(self, instance: str, cell_name: str) -> None:
        """Apply a swap and re-analyse."""
        obs.count("par.session.commits")
        if self.module.instance(instance).cell_name != cell_name:
            self._swap(instance, cell_name)
            self._report = self._analyze()

    def min_period_ps(self) -> float:
        """Binding minimum period of the current netlist."""
        return self._report.min_period_ps

    def critical_instances(self) -> list[str]:
        """Instances on the critical path, source first."""
        return [step.instance for step in self._report.critical_path]

    def report(self) -> TimingReport:
        """The :class:`TimingReport` of the current netlist."""
        return self._report

    def array_state(self) -> None:
        """No compiled state: the oracle re-analyses on the object engine."""
        return None


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


class ArrayTimingSession:
    """:class:`TimingSession` on the compiled array engine.

    Same constructor and move API.  One
    :class:`~repro.sta.array.CompiledTiming` is paid for up front.  A
    trial prices the slots its swap would change (the candidate's arcs,
    its input drivers at loads re-summed with its pin caps) as one row
    of coefficients, touching nothing, and re-runs the level sweep;
    only a commit swaps the cell and writes those coefficients.  The
    sweep re-times the whole netlist, but it is a handful of numpy
    passes, and the compile -- the expensive part -- is reused.

    Moves run lean: their sweeps skip min arrivals, and periods and
    critical paths come straight from the arrays
    (:class:`~repro.sta.array.Endpoints`).  The session starts from a
    full propagate (a replayed sizing run is timed once); after a commit,
    :meth:`report` and :meth:`array_state` pay for one more.

    Exactness contract: identical results to
    :func:`repro.sta.engine.analyze`, i.e. to the :class:`TimingSession`
    oracle.  When
    the array engine cannot guarantee that -- undriven logic, poisoned
    or unknown arc models, non-finite arithmetic, no or non-finite
    endpoints -- the session degrades to a delegate
    :class:`TimingSession`, so callers see the object engine's exact
    values and typed errors either way.
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
        # (instance, cell) -> (touched names, column); see _stage.
        self._staged: dict[tuple[str, str], tuple[frozenset, tuple]] = {}
        # (moves, state) of the last trial sweep since the last commit.
        self._batch: tuple[list, object] | None = None
        try:
            self._compiled = compile_timing(
                module, library, wire, output_load_ff
            )
            self._state = self._propagate(min_arrivals=True)
            self._endpoints = Endpoints(self._compiled, delay_derate)
        except _ArrayFallback:
            obs.count("sta.array.fallbacks")
            self._degrade()
            return
        self._graph = self._compiled.graph
        periods = self._endpoints.periods(self._state, clock)
        if not (periods.size and np.isfinite(periods).all()):
            # Endpoint periods only move with arrivals, which every
            # sweep proves finite: the oracle raises the object engine's
            # exact error here (or sorts non-finite periods its way).
            self._degrade()
            return
        if self._check:
            self._verify_against_full()

    def _degrade(self) -> None:
        """Swap in the TimingSession oracle (exact errors included)."""
        self._delegate = self._oracle()

    def _oracle(self) -> TimingSession:
        return TimingSession(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._output_load,
            delay_derate=self._derate,
        )

    def _propagate(self, min_arrivals: bool = False):
        """One sweep of the current netlist (lean unless asked)."""
        return self._compiled.propagate(
            self._input_slew, self._input_arrival, self._derates,
            min_arrivals=min_arrivals,
        )

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _column(self, instance: str, cell_name: str) -> tuple:
        """``(touched names, column)`` of a swap, priced without making
        it.  The touched names are the instance and the combinational
        drivers of its input nets: the slots the swap changes.

        Raises:
            TimingError: for a sequential cell on either side.
            _ArrayFallback: if a touched slot needs the object engine.
        """
        new_cell = self.library.get(cell_name)
        if (self._graph.cell_of(instance).is_sequential
                or new_cell.is_sequential):
            raise TimingError(
                f"cannot resize {instance!r} through a TimingSession: "
                "sequential cells are fixed for a session's lifetime"
            )
        touched = {instance}
        for in_net in set(self.module.instance(instance).inputs.values()):
            driver = self.module.driver_of(in_net)
            if (
                driver is not None
                and not is_port_ref(driver)
                and not self._graph.cell_of(driver[0]).is_sequential
            ):
                touched.add(driver[0])
        return frozenset(touched), self._compiled.column(
            touched, (instance, new_cell))

    def _swap(self, instance: str, cell_name: str) -> frozenset:
        """Make a swap in the module, the graph and the compiled arrays
        (raising as :meth:`_column`, with nothing changed); returns its
        touched names and drops the staged columns that share one."""
        touched, column = (self._staged.get((instance, cell_name))
                           or self._column(instance, cell_name))
        self.module.replace_cell(instance, cell_name)
        self._graph.rebind(instance)
        self._compiled.write(column)
        self._staged = {
            move: got for move, got in self._staged.items()
            if got[0].isdisjoint(touched)
        }
        return touched

    def _min_periods_of(self, state) -> np.ndarray:
        """Binding minimum period of every batch row of ``state``."""
        return self._endpoints.periods(state, self.clock).max(axis=1)

    def _min_period_of(self, state) -> float:
        return float(self._min_periods_of(state)[0])

    def trial(self, instance: str, cell_name: str) -> float:
        """Minimum period if the swap were made; nothing is changed."""
        if self._delegate is not None:
            return self._delegate.trial(instance, cell_name)
        obs.count("par.session.trials")
        old = self.module.instance(instance).cell_name
        if old == cell_name:
            return self._min_period_of(self._state)
        try:
            state = self._sweep([self._column(instance, cell_name)[1]])
        except _ArrayFallback:
            obs.count("sta.array.fallbacks")
            # The object engine is the only faithful evaluator of this
            # move (poisoned arcs, NaN shadowing with the finite guard
            # off): the oracle, on the swapped netlist, either raises
            # its exact typed error or yields the exact period.
            self.module.replace_cell(instance, cell_name)
            try:
                return self._oracle().min_period_ps()
            finally:
                self.module.replace_cell(instance, old)
        self._batch = ([(instance, cell_name)], state)
        return self._min_period_of(state)

    def _stage(self, instance: str, cell_name: str) -> tuple:
        """The :meth:`~repro.sta.array.CompiledTiming.column` of a swap
        (:data:`~repro.sta.array.UNCHANGED` for a no-op swap).

        Columns are memoised per move.  A swap changes the coefficients
        of exactly its touched slots (the instance's cell, its input
        drivers' loads), so a column stays bit-for-bit valid until a
        swap touches one of the same slots; :meth:`_swap` drops those.
        """
        got = self._staged.get((instance, cell_name))
        if got is None:
            # A no-op move is never memoised: its own swap dropped it.
            if self.module.instance(instance).cell_name == cell_name:
                return UNCHANGED
            obs.count("par.session.stage.misses")
            got = self._column(instance, cell_name)
            self._staged[(instance, cell_name)] = got
        return got[1]

    def _sweep(self, columns) -> ArrayState:
        """One lean sweep whose row ``j`` swaps in ``columns[j]``."""
        return self._compiled.propagate(
            self._input_slew, self._input_arrival,
            np.full(len(columns), self._derate),
            self._compiled.coefficients(columns), min_arrivals=False,
        )

    def trials(self, moves) -> list[float]:
        """:meth:`trial` of each ``(instance, cell)`` move, in one sweep.

        Each move's column is staged (priced, not swapped) and becomes
        one row of a single batched propagate, so the level sweep is paid
        once per call rather than once per move.  Results are bitwise
        equal to calling :meth:`trial` per move; if any column needs the
        object engine, every move is re-run through :meth:`trial`, which
        yields its exact period or typed error.
        """
        if self._delegate is not None:
            return self._delegate.trials(moves)
        moves = [(inst, cell) for inst, cell in moves]
        if not moves:
            return []
        try:
            state = self._sweep([self._stage(i, c) for i, c in moves])
        except (_ArrayFallback, TimingError):
            # A column needs the object engine, or the session rejects a
            # move: the per-move loop gives the exact periods, or the
            # error the first failing move raises.
            obs.count("sta.array.fallbacks")
            return [self.trial(inst, cell) for inst, cell in moves]
        obs.count("par.session.trials", len(moves))
        self._batch = (moves, state)
        return self._min_periods_of(state).tolist()

    def commit(self, instance: str, cell_name: str) -> None:
        """Apply a swap and re-time the netlist.

        A move scored by the last :meth:`trial` / :meth:`trials` sweep
        (with no commit since) adopts that sweep's row instead of
        propagating again: the row is bitwise what a propagate after
        this swap alone gives, and it already passed the sweep's checks.
        """
        if self._delegate is not None:
            self._delegate.commit(instance, cell_name)
            return
        obs.count("par.session.commits")
        if self.module.instance(instance).cell_name != cell_name:
            adopted = self._scored(instance, cell_name)
            try:
                self._swap(instance, cell_name)
                self._batch = None
                if adopted is None:
                    adopted = self._propagate()
            except _ArrayFallback:
                obs.count("sta.array.fallbacks")
                # The oracle re-times the swapped netlist (or raises the
                # object engine's exact error).
                self.module.replace_cell(instance, cell_name)
                self._degrade()
                return
            self._state = adopted
        if self._check:
            self._verify_against_full()

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
        """Binding minimum period over all endpoints."""
        if self._delegate is not None:
            return self._delegate.min_period_ps()
        return self._min_period_of(self._state)

    def critical_instances(self) -> list[str]:
        """Instances on the critical path, source first.

        Backtraced on the arrays from the first endpoint with the worst
        period, through each net's first-max arc: the tie-breaks of the
        report's stable endpoint sort and path walk, so the list equals
        ``[step.instance for step in report().critical_path]``.
        """
        if self._delegate is not None:
            return self._delegate.critical_instances()
        return self._endpoints.critical_instances(self._state, self.clock)

    def array_state(self) -> ArrayState | None:
        """The current netlist's fully propagated
        :class:`~repro.sta.array.ArrayState` (min arrivals included), or
        None once the session runs on the object engine.

        The full propagate cannot fall back: it re-runs the coefficients
        of a lean sweep that passed the same checks.
        """
        if self._delegate is not None:
            return None
        if self._state.marr is None:
            self._state = self._propagate(min_arrivals=True)
        return self._state

    def report(self) -> TimingReport:
        """Full :class:`TimingReport` of the current netlist."""
        state = self.array_state()
        if state is None:
            return self._delegate.report()
        return state.report(self.clock)

    # ------------------------------------------------------------------
    # Equivalence checking
    # ------------------------------------------------------------------

    def _verify_against_full(self) -> None:
        """Assert session state equals a from-scratch full analysis."""
        full = analyze(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._output_load,
            delay_derate=self._derate,
        )
        session_period = self.min_period_ps()
        critical = self.critical_instances()
        try:
            assert_reports_match(self.report(), full)
        except ArrayCheckError as exc:
            raise SessionCheckError(str(exc)) from exc
        if not _close(session_period, full.min_period_ps):
            raise SessionCheckError(
                f"incremental min period {session_period} but full "
                f"analyze() gives {full.min_period_ps}"
            )
        if critical != [step.instance for step in full.critical_path]:
            raise SessionCheckError(
                f"array critical path {critical} but full analyze() "
                f"walks {[step.instance for step in full.critical_path]}"
            )
