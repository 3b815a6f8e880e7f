"""TILOS-style greedy sensitivity sizing of mapped netlists.

Fishburn & Dunlop's TILOS (paper reference [7]) sizes transistors by
repeatedly bumping the element with the best delay-improvement-per-area
sensitivity on the critical path.  Our gate-level version does the same
over library drive strengths:

1. run STA, extract the critical path;
2. for every gate on it, trial the next drive variant (or a continuously
   scaled cell when the library has a continuous factory);
3. commit the swap with the best delay gain per added area;
4. repeat until timing is met, no move helps, or the budget runs out.

All timing here runs through a sizing session
(:class:`~repro.par.session.ArrayTimingSession`; behind
``use_array=False`` the :class:`~repro.par.session.TimingSession`
oracle re-runs a full ``analyze()`` per trial and commit).  The loop
asks a session only for the current period
(:meth:`~repro.par.session.ArrayTimingSession.min_period_ps`) and the
critical path's instances
(:meth:`~repro.par.session.ArrayTimingSession.critical_instances`),
so both sessions run the same code.  The array session pays for one
compile when the loop starts.  Each greedy step hands all of its
critical-path trials to the session at once: it prices every candidate
swap's arc coefficients without making the swap and scores them all
in a single lean batched level sweep (no min arrivals), one column per
candidate, bitwise equal to trialling them one by one.  A committed
move adopts its already-scored column as the session state, and the
next critical path is walked back on that state's arrays.  The one full
report is built at the end, for :attr:`SizingResult.report`; the fully
propagated state behind it rides along as
:attr:`SizingResult.array_state`, so a period solve of the sized
netlist need not compile it again.

Greedy sizing under a move budget is prefix-closed (no decision reads
the budget but the loop bound), so the first ``m`` moves of any run are
the ``m``-move run.  A run yields its :class:`Trajectory`; ``replay=``
re-applies an earlier one's prefix with one session build and goes on
greedily past its end.  The flows keep trajectories in the stage cache,
so a budget sweep costs the greedy steps of its largest budget.

Section 6.2: "After layout, transistors can be resized accounting for the
drive strengths required to send signals across the circuit ... can make
a speed difference of 20% or more."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro._fold import fold_sum
from repro.cells.cell import Cell
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.par.session import ArrayTimingSession, TimingSession
from repro.sizing.logical_effort import SizingError
from repro.sta.clocking import Clock
from repro.sta.engine import TimingReport
from repro.sta.timing_graph import WireParasitics

if TYPE_CHECKING:
    from repro.sta.array import ArrayState


@dataclass(frozen=True)
class Trajectory:
    """The committed moves of one successful greedy run, for replay.

    Attributes:
        initial_period_ps: minimum period before the first move.
        commits: ``(instance, new_cell, added_area)`` of every accepted
            move, in order.
        registered: per greedy step, the cells that step added to the
            library, in order (a continuous factory registers every
            trial candidate, committed or not).
        stopped: the run ended before its budget (target met, area
            limit hit, or no improving move), so a larger budget makes
            no further move.
    """

    initial_period_ps: float
    commits: tuple[tuple[str, str, float], ...] = ()
    registered: tuple[tuple[Cell, ...], ...] = ()
    stopped: bool = False


@dataclass
class SizingResult:
    """Outcome of a sizing run.

    Attributes:
        initial_period_ps: minimum period before sizing.
        final_period_ps: minimum period after sizing.
        moves: number of accepted drive changes.
        area_before_um2: total cell area before.
        area_after_um2: total cell area after.
        report: final timing report.
        array_state: the session's fully propagated
            :class:`~repro.sta.array.ArrayState` of the sized netlist
            (None on the object engine); a period solve of the same
            netlist can start from it instead of compiling again.
        trajectory: the longest known run from the same start: this
            run's, or the replayed one when this run added nothing.
        replayed_moves: moves re-applied from a replayed trajectory.
    """

    initial_period_ps: float
    final_period_ps: float
    moves: int
    area_before_um2: float
    area_after_um2: float
    report: TimingReport
    array_state: ArrayState | None = field(
        default=None, repr=False, compare=False
    )
    trajectory: Trajectory | None = field(
        default=None, repr=False, compare=False
    )
    replayed_moves: int = 0

    @property
    def speedup(self) -> float:
        return self.initial_period_ps / self.final_period_ps

    @property
    def area_growth(self) -> float:
        return self.area_after_um2 / self.area_before_um2


def total_area_um2(module: Module, library: CellLibrary) -> float:
    """Total cell area of a mapped netlist."""
    return fold_sum(
        library.get(inst.cell_name).area_um2 for inst in module.iter_instances()
    )


def _next_drive_cell(library: CellLibrary, cell_name: str,
                     continuous_step: float = 1.4) -> str | None:
    """Name of the next-stronger variant of a cell, or None at the top.

    With a continuous factory, generates a cell ``continuous_step`` times
    stronger and registers it in the library so STA can resolve it.
    """
    cell = library.get(cell_name)
    if cell.is_sequential:
        return None
    if library.continuous_factory is not None:
        return library.continuous_cell(
            cell.base_name, cell.drive * continuous_step).name
    variants = library.drives_of(cell.base_name)
    stronger = [c for c in variants if c.drive > cell.drive]
    if not stronger:
        return None
    return stronger[0].name


def size_for_speed(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    target_period_ps: float | None = None,
    max_moves: int = 500,
    area_limit: float = 3.0,
    use_array: bool = True,
    check_array: bool = False,
    replay: Trajectory | None = None,
) -> SizingResult:
    """Greedy sensitivity sizing; mutates ``module`` in place.

    Args:
        module: mapped netlist to size.
        library: its library (grows new cells in continuous mode).
        clock: analysis clock.
        wire: optional wire parasitics (post-layout resizing, Sec. 6.2).
        target_period_ps: stop once this period is met (None = squeeze
            until no move helps).
        max_moves: upper bound on accepted changes.
        area_limit: stop when area grows beyond this multiple.
        use_array: run trials on the compiled array session (identical
            results; False re-analyses each move on the object engine).
        check_array: cross-check the array session against a full
            analysis after every commit (:class:`~repro.par.session.SessionCheckError`
            on divergence).
        replay: the trajectory of an earlier run from this very
            netlist, library, clock, wire, target and area limit; its
            first ``max_moves`` moves are re-applied without trials
            (results are identical to running them).

    Raises:
        SizingError: on invalid budgets.
    """
    if max_moves < 0 or area_limit < 1.0:
        raise SizingError("invalid sizing budget")
    with obs.span("sizing.tilos", budget=max_moves) as sp:
        area_before = total_area_um2(module, library)
        area_now = area_before
        commits: list[tuple[str, str, float]] = []
        registered: list[tuple[Cell, ...]] = []
        stopped = False
        if replay is not None:
            commits = list(replay.commits[:max_moves])
            stopped = replay.stopped and max_moves > len(commits)
            # A run bounded at m moves ran m steps; one that stopped
            # early also ran the step that found no move.
            registered = list(replay.registered if stopped
                              else replay.registered[:len(commits)])
            for cells in registered:
                for cell in cells:
                    library.add(cell)
            for instance, new_cell, added_area in commits:
                module.replace_cell(instance, new_cell)
                area_now += added_area
        if use_array:
            session = ArrayTimingSession(module, library, clock, wire=wire,
                                         check=check_array)
        else:
            session = TimingSession(module, library, clock, wire=wire)
        period = session.min_period_ps()
        initial_period = (period if replay is None
                          else replay.initial_period_ps)
        moves = replayed = len(commits)
        extended = replay is None
        while moves < max_moves and not stopped:
            extended = True
            if target_period_ps is not None and period <= target_period_ps:
                stopped = True
                break
            if area_now > area_limit * area_before:
                stopped = True
                break
            known = len(library)
            move = _best_move(session, library, period)
            registered.append(tuple(list(library)[known:]))
            if move is None:
                stopped = True
                break
            instance, new_cell, added_area = move
            session.commit(instance, new_cell)
            period = session.min_period_ps()
            area_now += added_area
            if not math.isfinite(period):
                raise SizingError(
                    f"sizing diverged to a non-finite period after "
                    f"{moves} moves (swap {instance} -> {new_cell})"
                )
            commits.append(move)
            moves += 1
        report = session.report()
        area_after = total_area_um2(module, library)
        obs.count("sizing.tilos.calls")
        obs.observe("sizing.tilos.moves", moves)
        obs.observe("sizing.tilos.area_delta_um2", area_after - area_before)
        sp.set(moves=moves, area_delta_um2=area_after - area_before,
               speedup=initial_period / report.min_period_ps)
    trajectory = replay
    if extended:
        trajectory = Trajectory(initial_period, tuple(commits),
                                tuple(registered), stopped)
    return SizingResult(
        initial_period_ps=initial_period,
        final_period_ps=report.min_period_ps,
        moves=moves,
        area_before_um2=area_before,
        area_after_um2=area_after,
        report=report,
        array_state=session.array_state(),
        trajectory=trajectory,
        replayed_moves=replayed,
    )


def _best_move(
    session: ArrayTimingSession | TimingSession,
    library: CellLibrary,
    base_period: float,
) -> tuple[str, str, float] | None:
    """Trial upsizing each critical-path gate; best (inst, cell, area).

    Sensitivity is delay improvement per unit added area; moves that do
    not improve the period are rejected.  All of a move's trials go to
    the session as one batch (one array sweep on the array session).
    """
    candidates: list[tuple[str, str, float]] = []
    seen: set[str] = set()
    for instance in session.critical_instances():
        if instance in seen:
            continue
        seen.add(instance)
        old_cell = session.module.instance(instance).cell_name
        candidate = _next_drive_cell(library, old_cell)
        if candidate is None:
            continue
        added_area = (
            library.get(candidate).area_um2 - library.get(old_cell).area_um2
        )
        candidates.append((instance, candidate, added_area))
    if not candidates:
        return None
    obs.count("sizing.tilos.steps")
    obs.count("sizing.tilos.trials", len(candidates))
    periods = session.trials((inst, cell) for inst, cell, _ in candidates)
    best: tuple[float, str, str, float] | None = None
    for (instance, candidate, added_area), trial_period in zip(
        candidates, periods
    ):
        gain = base_period - trial_period
        if gain <= 1e-9:
            continue
        sensitivity = gain / max(added_area, 1e-9)
        if best is None or sensitivity > best[0]:
            best = (sensitivity, instance, candidate, added_area)
    if best is None:
        return None
    return best[1], best[2], best[3]


def downsize_off_critical(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    slack_margin_ps: float = 0.0,
) -> int:
    """Minimum-power sizing: shrink gates that can afford it.

    Section 6.2: "Sizing transistors minimally to reduce power
    consumption, except on critical paths where they are optimally sized
    to meet speed requirements".  Every gate is trial-downsized to the
    next weaker variant and the change is kept if the minimum period does
    not degrade (beyond the margin).  Returns the number of gates shrunk.
    Each decision depends on the previous commit, so trials run one at a
    time; a kept trial's sweep becomes the committed state.
    """
    session = ArrayTimingSession(module, library, clock, wire=wire)
    budget = session.min_period_ps() + slack_margin_ps
    shrunk = 0
    for inst_name in sorted(module.instances):
        cell = library.get(module.instance(inst_name).cell_name)
        if cell.is_sequential:
            continue
        variants = library.drives_of(cell.base_name)
        weaker = [c for c in variants if c.drive < cell.drive]
        if not weaker:
            continue
        trial_period = session.trial(inst_name, weaker[-1].name)
        if trial_period <= budget + 1e-9:
            session.commit(inst_name, weaker[-1].name)
            shrunk += 1
    obs.count("sizing.tilos.downsized", shrunk)
    return shrunk
