"""Vectorized array-backed STA: levelized compilation + batched sweeps.

The object engine in :mod:`repro.sta.engine` walks Python dicts per pin;
profiling shows that interpreter dispatch -- not arithmetic -- is the
cost of an ``analyze()``.  This module compiles the timing graph once
into flat numpy arrays (a levelized CSR-style layout) so one analysis
becomes a handful of vectorized level sweeps, and a *batch* of analyses
(Monte Carlo samples, process corners) broadcasts a leading sample axis
through the same sweeps instead of running N sequential object-engine
passes.

Layout
------

Combinational instances are sorted by ``(level, topological position)``
where a net's level is the longest instance chain from any start net.
Every input pin becomes one *arc* in a flat array ordered by
``(level, instance, pin order)``; instances own contiguous arc segments
(CSR style), and each level owns a contiguous range of arcs, instances
and output nets.  Per-arc delay models are reduced to coefficients at
compile time, at the instance's actual load:

* linear arcs: ``delay = k_const + k_sens * slew`` with a constant
  output slew (the linear model's output slew is load-only);
* NLDM arcs: the bilinear table interpolation at a fixed load collapses
  to a 1-D row table over the slew axis; rows are precomputed with the
  *same* floating-point expression as :func:`repro.cells.delay._bilinear`
  so interpolation stays bitwise identical.

A level sweep gathers source arrivals/slews, evaluates all arcs at once,
and lays them out as an ``(instances, widest arity)`` grid per batch
row (a shorter instance repeats its last arc).  Max/min over the grid is
exact (no rounding), and ``argmax`` returns the first maximum, the
object engine's tie-break -- so arrivals, slews *and* the critical-path
trace are bitwise equal to ``analyze()``.

A batch may also give each row its own coefficients
(:meth:`CompiledTiming.coefficients`, built from the columns a candidate
cell swap changes), so one sweep scores many sizing trials.  Compile,
candidate columns and committed swaps all price a slot with the one
pure :func:`slot_coefficients`.

Oracle fallback
---------------

Anything outside the engineered-equal happy path -- undriven logic,
non-finite loads or arrivals, negative slews, unknown arc models --
raises the internal :class:`_ArrayFallback` and the caller delegates the
whole analysis to the object engine, which reproduces the exact error
(or the exact NaN-shadowing semantics when the finite guard is off).
``check=`` mode runs the object engine anyway and asserts equality, the
same belt-and-braces pattern as ``ArrayTimingSession(check=True)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.cells.delay import LinearDelayArc, NLDMArc, _bracket
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.robust.switches import guard_enabled
from repro.sta.clocking import Clock
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW_PS,
    PathCycleError,
    TimingReport,
    analyze,
    build_report,
)
from repro.sta.timing_graph import TimingError, TimingGraph, WireParasitics

#: Samples per chunk of the Monte Carlo kernel.  Sized so the working
#: set (the ``(nets, chunk)`` arrival matrix, the per-arc delays and
#: two ``(chunk, arcs + registers)`` draws) stays near cache size: on
#: the 518-cell Wallace multiplier 256 and 512 tied for fastest, and
#: 2048 took ~10% more CPU.  The RNG stream, drawn in sample order,
#: does not depend on it.
MC_CHUNK = 512


class ArrayCheckError(TimingError):
    """Vectorized and object-engine STA disagreed (``check=`` violation)."""


class _ArrayFallback(Exception):
    """Internal: this analysis needs the object engine (exact errors /
    NaN-shadowing semantics the vectorized path cannot reproduce)."""


#: A :meth:`CompiledTiming.coefficients` column that changes no arc.
UNCHANGED: tuple = ((), ())


def slot_coefficients(cell, pins, load_ff: float) -> list[tuple] | None:
    """One slot's arc coefficients: ``cell``'s arcs from ``pins`` at
    ``load_ff``, computed without writing anything.

    One ``(kind, k_const, k_sens, k_outslew, table)`` per pin: kind 0 is
    a linear arc (``table`` None), kind 1 an NLDM arc (NaN linear terms,
    ``table`` its ``(slew axis, delay row, slew row)`` at this load).
    None if only the object engine evaluates the slot faithfully: a
    non-finite or negative load, a missing or unknown arc model, or a
    non-finite coefficient.
    """
    if not (math.isfinite(load_ff) and load_ff >= 0.0):
        return None
    got = []
    for pin in pins:
        arc = cell.arcs.get(pin)
        if isinstance(arc, LinearDelayArc):
            # LinearDelayArc's grouping: the load term folds into the
            # constant (the output slew's base), the slew term stays.
            k_const = arc.parasitic_ps + arc.effort_ps_per_ff * load_ff
            if not math.isfinite(k_const):
                return None
            got.append((0, k_const, arc.slew_sensitivity, max(
                arc.min_output_slew_ps, arc.slew_ratio * k_const), None))
        elif isinstance(arc, NLDMArc):
            # _bilinear's row interpolation at this load, bit for bit.
            lo, hi, t = _bracket(arc.load_axis_ff, load_ff)
            delay, slew = ([row[lo] * (1 - t) + row[hi] * t for row in rows]
                           for rows in (arc.delay_table_ps, arc.slew_table_ps))
            if not all(map(math.isfinite, delay + slew)):
                return None
            got.append((1, math.nan, math.nan, math.nan,
                        (arc.slew_axis_ps, delay, slew)))
        else:
            return None
    return got


class CompiledTiming:
    """A timing graph compiled to levelized arrays.

    Construction never raises for *semantic* problems (undriven nets,
    poisoned arcs): those set a fallback reason and every
    :meth:`propagate` raises :class:`_ArrayFallback`, letting callers
    delegate to the object engine for the exact error.  Structure is
    immutable; a committed cell swap writes the :meth:`column` of its
    touched slots with :meth:`write`.
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        wire: WireParasitics | None = None,
        output_load_ff: float | None = None,
    ) -> None:
        self.module = module
        self.library = library
        self.graph = TimingGraph(module, library, wire, output_load_ff)
        self._fallback: str | None = None
        obs.count("sta.array.compile.calls")
        self._build_structure()
        if self._fallback is None:
            self._build_coefficients()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _build_structure(self) -> None:
        graph = self.graph
        module = self.module
        order = topological_order(module, graph.sequential_cell_names())

        net_id: dict[str, int] = {}

        def nid(net: str) -> int:
            got = net_id.get(net)
            if got is None:
                got = len(net_id)
                net_id[net] = got
            return got

        start = graph.start_nets()
        input_ids = [nid(n) for n, k in start.items() if k == "input"]
        start_ids = [nid(n) for n in start]

        reg_ids: list[int] = []
        reg_clkq: list[float] = []
        for name in graph.sequential_instances():
            cell = graph.cell_of(name)
            inst = module.instance(name)
            for net in inst.outputs.values():
                reg_ids.append(nid(net))
                reg_clkq.append(cell.sequential.clk_to_q_ps)

        # Levelize in topological order; the walk also proves every comb
        # input is driven (the engine's first structural check).
        net_level: dict[str, int] = {net: 0 for net in start}
        comb: list[tuple[str, int]] = []
        for name in order:
            cell = graph.cell_of(name)
            if cell.is_sequential:
                continue
            inst = module.instance(name)
            if not inst.outputs:
                continue
            if not inst.inputs:
                # The object engine stores a None arrival here and fails
                # later in an untyped way; delegate rather than guess.
                self._fallback = f"instance {name!r} has outputs but no inputs"
                return
            lvl = 0
            for in_net in inst.inputs.values():
                got = net_level.get(in_net)
                if got is None:
                    self._fallback = (
                        f"net {in_net!r} feeding {name} has no arrival"
                    )
                    return
                if got > lvl:
                    lvl = got
            for net in inst.outputs.values():
                net_level[net] = lvl + 1
            comb.append((name, lvl))

        by_level = sorted(range(len(comb)), key=lambda i: (comb[i][1], i))

        arc_src: list[int] = []
        arc_wire: list[float] = []
        self._arc_inst: list[str] = []
        self._arc_pin: list[str] = []
        self._inst_names: list[str] = []
        seg_start: list[int] = []
        narcs: list[int] = []
        out_net: list[int] = []
        out_owner: list[int] = []
        levels: list[dict] = []
        prev_lvl = None
        for slot, ci in enumerate(by_level):
            name, lvl = comb[ci]
            if lvl != prev_lvl:
                levels.append(
                    {"a0": len(arc_src), "i0": slot, "o0": len(out_net)}
                )
                prev_lvl = lvl
            inst = module.instance(name)
            self._inst_names.append(name)
            seg_start.append(len(arc_src))
            narcs.append(len(inst.inputs))
            for pin, in_net in inst.inputs.items():
                arc_src.append(net_id[in_net])
                arc_wire.append(graph.wire.delay(in_net))
                self._arc_inst.append(name)
                self._arc_pin.append(pin)
            for net in inst.outputs.values():
                out_net.append(nid(net))
                out_owner.append(slot)
            levels[-1].update(
                {"a1": len(arc_src), "i1": slot + 1, "o1": len(out_net)}
            )

        self._net_ids = net_id
        self._n_nets = len(net_id)
        self._net_names = [None] * len(net_id)
        for net, i in net_id.items():
            self._net_names[i] = net
        self._input_ids = np.asarray(input_ids, dtype=np.int64)
        self._start_ids = np.asarray(start_ids, dtype=np.int64)
        self._reg_ids = np.asarray(reg_ids, dtype=np.int64)
        self._reg_clkq = np.asarray(reg_clkq)
        self._arc_src = np.asarray(arc_src, dtype=np.int64)
        self._arc_wire = np.asarray(arc_wire)
        self._inst_seg = np.asarray(seg_start, dtype=np.int64)
        self._inst_narcs = np.asarray(narcs, dtype=np.int64)
        self._out_net = np.asarray(out_net, dtype=np.int64)
        self._out_owner = np.asarray(out_owner, dtype=np.int64)
        self._slot_of = {n: i for i, n in enumerate(self._inst_names)}
        for lv in levels:
            lv["src"] = self._arc_src[lv["a0"]:lv["a1"]]
            lv["wire"] = self._arc_wire[lv["a0"]:lv["a1"]]
            lv["starts"] = self._inst_seg[lv["i0"]:lv["i1"]]
            lv["segs"] = lv["starts"] - lv["a0"]
            lv["counts"] = self._inst_narcs[lv["i0"]:lv["i1"]]
            lv["onet"] = self._out_net[lv["o0"]:lv["o1"]]
            # Output nets are numbered in level order: usually a range.
            lo, hi = int(lv["onet"][0]), int(lv["onet"][-1]) + 1
            lv["oset"] = (slice(lo, hi) if np.array_equal(
                lv["onet"], np.arange(lo, hi)) else lv["onet"])
            owner = self._out_owner[lv["o0"]:lv["o1"]] - lv["i0"]
            # One output per instance (the usual case): a basic slice
            # selects the per-instance results as a view, no gather.
            single = np.array_equal(owner, np.arange(lv["i1"] - lv["i0"]))
            lv["owner"] = slice(None) if single else owner
            # The level's arcs as an (instances, widest arity) grid for
            # the first-max argmax: a shorter instance repeats its last
            # arc, which neither moves its max nor precedes its original.
            # Uniform arity reshapes the arc row as it is (a view).
            width = int(lv["counts"].max())
            lv["grid"] = (lv["i1"] - lv["i0"], width)
            lv["pad"] = None if (lv["counts"] == width).all() else (
                lv["segs"][:, None]
                + np.minimum(np.arange(width), lv["counts"][:, None] - 1)
            ).ravel()
        self._levels = levels
        self._level_starts = [lv["a0"] for lv in levels] + [len(arc_src)]
        # Per-level NLDM arcs (see _level_plans); rebuilt on first use
        # after any arc changes kind (see write).
        self._plans: list[tuple | None] | None = None

        n_arcs = len(arc_src)
        self._kind = np.zeros(n_arcs, dtype=np.int8)
        # The linear coefficients, stacked so coefficients() copies them
        # in one pass; the three rows are views.
        self._k = np.full((3, n_arcs), np.nan)
        self._k_const, self._k_sens, self._k_outslew = self._k
        self._tab_p = 0
        self._tab_n = np.zeros(n_arcs, dtype=np.int64)
        self._tab_axis = np.empty((n_arcs, 0))
        self._tab_delay = np.empty((n_arcs, 0))
        self._tab_slew = np.empty((n_arcs, 0))

    def _net_id(self, net: str) -> int | None:
        return self._net_ids.get(net)

    def _build_coefficients(self) -> None:
        try:
            self.write(self.column(self._inst_names))
        except _ArrayFallback as exc:
            self._fallback = str(exc)

    def column(self, names, swap: tuple | None = None) -> tuple:
        """``(arcs, coefficients)`` of the slots ``names``: plain per-arc
        lists (see :func:`slot_coefficients`), for :meth:`write` or as a
        :meth:`coefficients` column.  Writes nothing.

        ``swap`` is an ``(instance, cell)`` pair priced without making
        it: the instance's arcs come from ``cell``, and every load is
        re-summed with its pin caps (``TimingGraph.net_load_ff``).  The
        slots a swap changes are the instance and the drivers of its
        input nets.  Names without a combinational slot are ignored.

        Raises:
            _ArrayFallback: if a slot needs the object engine.
        """
        graph = self.graph
        arcs: list[int] = []
        coeffs: list[tuple] = []
        for name in names:
            slot = self._slot_of.get(name)
            if slot is None:
                continue
            got = slot_coefficients(
                swap[1] if swap and name == swap[0] else graph.cell_of(name),
                self.module.instance(name).inputs,
                graph.instance_load_ff(name, swap),
            )
            if got is None:
                raise _ArrayFallback(
                    f"instance {name!r} needs the object engine")
            a = int(self._inst_seg[slot])
            arcs.extend(range(a, a + len(got)))
            coeffs.extend(got)
        return arcs, coeffs

    def write(self, column) -> None:
        """Make a :meth:`column` the compiled coefficients of its arcs
        (compile writes every slot, a commit the slots it touches).  An
        arc that changes kind drops the level plans; a table wider than
        every compiled one widens the table arrays."""
        arcs, coeffs = column
        if not arcs:
            return
        kind, k_const, k_sens, k_outslew, tables = zip(*coeffs)
        kind = np.asarray(kind, dtype=np.int8)
        if (self._kind[arcs] != kind).any():
            self._kind[arcs] = kind
            self._plans = None
        self._k[:, arcs] = k_const, k_sens, k_outslew
        for a, table in zip(arcs, tables):
            if table is None:
                continue
            n = len(table[0])
            if n > self._tab_p:
                pad = ((0, 0), (0, n - self._tab_p))
                self._tab_axis = np.pad(self._tab_axis, pad,
                                        constant_values=np.inf)
                self._tab_delay = np.pad(self._tab_delay, pad)
                self._tab_slew = np.pad(self._tab_slew, pad)
                self._tab_p = n
            self._tab_n[a] = n
            self._tab_axis[a] = np.inf
            (self._tab_axis[a, :n], self._tab_delay[a, :n],
             self._tab_slew[a, :n]) = table

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _level_plans(self) -> list[tuple | None]:
        """Per level ``(arcs, table rows, positions)`` of its NLDM arcs
        (level-relative, absolute, ``arange``), or None if it has none."""
        if self._plans is None:
            plans = []
            for lv in self._levels:
                nld = np.nonzero(self._kind[lv["a0"]:lv["a1"]] == 1)[0]
                plans.append((nld, lv["a0"] + nld, np.arange(nld.size))
                             if nld.size else None)
            self._plans = plans
        return self._plans

    def coefficients(self, columns) -> tuple:
        """Per-row coefficients of a batch whose row ``j`` swaps in
        ``columns[j]`` (a :meth:`column`) over the compiled arcs.

        Returns ``(k_const, k_sens, k_outslew, redo)`` for
        :meth:`propagate`: ``(rows, arcs)`` linear coefficients, and per
        level the entries a level sweep re-evaluates after its compiled
        arcs (None if it has none): ``(rows, arcs)`` of linear arcs over
        a compiled table arc, and ``(rows, arcs, points, axis, delay,
        slew, positions)`` of the columns' table arcs.  Only those get
        per-row tables, padded to the widest of them; the compiled
        tables are left as they are.
        """
        b = len(columns)
        linear = np.repeat(self._k[:, None, :], b, axis=1)
        arc = [a for c in columns for a in c[0]]
        if not arc:
            return (*linear, [None] * len(self._levels))
        col = np.repeat(np.arange(b), [len(c[0]) for c in columns])
        kind, k_const, k_sens, k_outslew, tables = zip(
            *[x for c in columns for x in c[1]])
        linear[:, col, arc] = k_const, k_sens, k_outslew
        if not (self._tab_p or any(kind)):
            # No table arc anywhere: no entry needs a second pass.
            return (*linear, [None] * len(self._levels))
        arc = np.asarray(arc, dtype=np.int64)
        kind = np.asarray(kind, dtype=np.int8)
        lin, tab = (
            np.nonzero(mask)[0][np.argsort(arc[mask], kind="stable")]
            for mask in ((kind == 0) & (self._kind[arc] == 1), kind == 1))
        if not (lin.size or tab.size):
            return (*linear, [None] * len(self._levels))
        # The columns' tables, one row per table arc in ``tab`` order,
        # padded as write pads the compiled ones.
        points = np.asarray([len(tables[i][0]) for i in tab], dtype=np.int64)
        width = int(points.max(initial=0))
        axis = np.full((tab.size, width), np.inf)
        delay, slew = np.zeros((2, tab.size, width))
        for r, i in enumerate(tab):
            n = points[r]
            axis[r, :n], delay[r, :n], slew[r, :n] = tables[i]
        cuts = [np.searchsorted(arc[sel], self._level_starts)
                for sel in (lin, tab)]
        redo = []
        for li, lv in enumerate(self._levels):
            i = lin[cuts[0][li]:cuts[0][li + 1]]
            t0, t1 = cuts[1][li], cuts[1][li + 1]
            t = tab[t0:t1]
            redo.append((
                (col[i], arc[i] - lv["a0"]) if i.size else None,
                (col[t], arc[t] - lv["a0"], points[t0:t1], axis[t0:t1],
                 delay[t0:t1], slew[t0:t1], np.arange(t.size))
                if t.size else None,
            ) if i.size or t.size else None)
        return (*linear, redo)

    def propagate(
        self,
        input_slew_ps: float,
        input_arrival_ps: float,
        derates: np.ndarray,
        coefficients: tuple | None = None,
        min_arrivals: bool = True,
    ) -> "ArrayState":
        """Batched level-sweep propagation; one batch row per derate.

        ``coefficients`` (from :meth:`coefficients`) gives every batch
        row its own arc coefficients; without it every row uses the
        compiled ones.  ``min_arrivals=False`` skips the min-arrival
        (hold) half of the sweep: the state has ``marr = None``, which
        still answers periods and critical paths but not a report.

        Raises:
            _ArrayFallback: when exact equivalence with the object
                engine cannot be guaranteed (the caller must delegate).
        """
        if self._fallback is not None:
            raise _ArrayFallback(self._fallback)
        if not (math.isfinite(input_slew_ps) and input_slew_ps >= 0.0):
            raise _ArrayFallback(f"input slew {input_slew_ps}")
        obs.count("sta.array.propagate.calls")
        derates = np.asarray(derates, dtype=np.float64)
        b = derates.shape[0]
        if coefficients is None:
            kc, ks, ko = (v[None, :] for v in
                          (self._k_const, self._k_sens, self._k_outslew))
            redo = [None] * len(self._levels)
        else:
            kc, ks, ko, redo = coefficients
            if kc.shape[0] != b:
                raise ValueError(
                    f"{kc.shape[0]} coefficient rows for {b} derates")
        n = self._n_nets
        arr = np.full((b, n), np.nan)
        marr = np.full((b, n), np.nan) if min_arrivals else None
        slw = np.full((b, n), np.nan)
        best = np.full((b, n), -1, dtype=np.int64)
        arr[:, self._input_ids] = input_arrival_ps
        slw[:, self._start_ids] = input_slew_ps
        if self._reg_ids.size:
            launch = self._reg_clkq[None, :] * derates[:, None]
            arr[:, self._reg_ids] = launch
        if min_arrivals:
            marr[:, self._input_ids] = input_arrival_ps
            if self._reg_ids.size:
                marr[:, self._reg_ids] = launch
        ats = []
        rows = np.arange(b)[:, None]
        # Flat offset of each batch row in a per-row coefficient array.
        base = rows * ko.shape[1] if ko.shape[0] > 1 else 0
        # x * 1.0 is x, bit for bit: a batch at derate 1 skips the scaling.
        scale = None if (derates == 1.0).all() else derates[:, None]
        tables = (self._tab_n, self._tab_axis, self._tab_delay,
                  self._tab_slew)
        for lv, plan, fix in zip(self._levels, self._level_plans(), redo):
            a0, a1 = lv["a0"], lv["a1"]
            src = lv["src"]
            sl_in = slw.take(src, axis=1)
            delay = kc[:, a0:a1] + ks[:, a0:a1] * sl_in
            outsl = None
            if plan or fix:
                outsl = np.empty_like(delay)
                outsl[:] = ko[:, a0:a1]
                lin, tab = fix or (None, None)
                if plan:
                    c, t, e = plan
                    _interpolate(sl_in, rows, c, *(x[t] for x in tables), e,
                                 delay, outsl)
                if lin:
                    r, c = lin
                    delay[r, c] = kc[r, a0 + c] + ks[r, a0 + c] * sl_in[r, c]
                    outsl[r, c] = ko[r, a0 + c]
                if tab:
                    _interpolate(sl_in, *tab, delay, outsl)
            w = lv["wire"]
            if scale is not None:
                delay *= scale
                w = w * scale
            at = arr.take(src, axis=1)
            at += w
            at += delay
            ats.append(at)
            pad, grid = lv["pad"], (b, *lv["grid"])
            view = (at if pad is None else at.take(pad, axis=1)).reshape(grid)
            first = view.argmax(axis=2)
            first += lv["starts"]
            onet, owner = lv["oset"], lv["owner"]
            arr[:, onet] = np.maximum.reduce(view, 2)[:, owner]
            slw[:, onet] = (ko.take(first + base) if outsl is None
                            else outsl[rows, first - a0])[:, owner]
            if min_arrivals:
                mat = marr.take(src, axis=1)
                mat += w
                mat += delay
                view = (mat if pad is None
                        else mat.take(pad, axis=1)).reshape(grid)
                marr[:, onet] = np.minimum.reduce(view, 2)[:, owner]
            best[:, onet] = first[:, owner]
        if not np.isfinite(np.concatenate(ats, axis=1)).all():
            # Cannot reproduce the engine's NaN handling (named error
            # with the guard on, max-shadowing with it off) with
            # np.maximum, which propagates NaN.
            raise _ArrayFallback("non-finite arrival")
        # Negative slews would make the object engine raise
        # DelayModelError at the consuming arc; delegate for that error.
        if self._out_net.size and not (slw[:, self._out_net] >= 0.0).all():
            raise _ArrayFallback("negative output slew")
        return ArrayState(
            self, arr, marr, slw, best, derates,
            float(input_slew_ps), float(input_arrival_ps),
        )


def _interpolate(sl_in, r, c, points, axis, delay_tab, slew_tab, e,
                 delay, outsl) -> None:
    """Write table arcs ``(r, c)`` of one level into ``delay``/``outsl``
    with the slew-axis step of :func:`repro.cells.delay._bilinear`."""
    x = sl_in[r, c]
    hi = (axis < x[..., None]).sum(axis=-1)
    hi = np.clip(hi, 1, points - 1)
    lo = hi - 1
    alo = axis[e, lo]
    t = (x - alo) / (axis[e, hi] - alo)
    delay[r, c] = delay_tab[e, lo] * (1 - t) + delay_tab[e, hi] * t
    outsl[r, c] = slew_tab[e, lo] * (1 - t) + slew_tab[e, hi] * t


class ArrayState:
    """Propagated arrivals for one batch of derates over one compile."""

    def __init__(
        self, compiled, arr, marr, slw, best, derates, input_slew,
        input_arrival,
    ) -> None:
        self.compiled = compiled
        self.arr = arr
        self.marr = marr
        self.slw = slw
        self.best = best
        self.derates = derates
        self._input_slew = input_slew
        self._input_arrival = input_arrival
        self._dicts: dict[int, tuple] = {}

    def row(self, j: int) -> "ArrayState":
        """Batch row ``j`` as a width-1 state (views, not copies)."""
        s = slice(j, j + 1)
        return ArrayState(
            self.compiled, self.arr[s],
            None if self.marr is None else self.marr[s], self.slw[s],
            self.best[s], self.derates[s], self._input_slew,
            self._input_arrival,
        )

    def path_instances(self, net: int) -> list[str]:
        """Instances on batch row 0's worst path into net id ``net``,
        source first.

        Walks the first-max arcs recorded in ``best`` back to a start
        net: the instances of :func:`repro.sta.engine.build_report`'s
        path walk, without building the report.  The walk takes at most
        one step per net.

        Raises:
            PathCycleError: ``best`` loops back on itself.
        """
        ct = self.compiled
        best = self.best[0]
        names: list[str] = []
        a = int(best[net])
        while a >= 0:
            if len(names) == len(best):
                raise PathCycleError(
                    f"critical-path backtrace from net "
                    f"{ct._net_names[net]!r} loops"
                )
            names.append(ct._arc_inst[a])
            a = int(best[ct._arc_src[a]])
        names.reverse()
        return names

    def _as_dicts(self, row: int) -> tuple[dict, dict, dict, dict, dict]:
        got = self._dicts.get(row)
        if got is not None:
            return got
        ct = self.compiled
        nets = ct._net_names
        arrival: dict[str, float] = {}
        min_arrival: dict[str, float] = {}
        slew: dict[str, float] = {}
        trace: dict[str, tuple[str, str] | None] = {}
        launch_q: dict[str, float] = {}
        for i in ct._start_ids:
            net = nets[i]
            trace[net] = None
            slew[net] = self._input_slew
        for i in ct._input_ids:
            net = nets[i]
            arrival[net] = self._input_arrival
            min_arrival[net] = self._input_arrival
        arr_row = self.arr[row]
        marr_row = self.marr[row]
        slw_row = self.slw[row]
        best_row = self.best[row]
        for i in ct._reg_ids:
            net = nets[i]
            value = float(arr_row[i])
            arrival[net] = value
            min_arrival[net] = value
            launch_q[net] = value
        for i in ct._out_net:
            net = nets[i]
            arrival[net] = float(arr_row[i])
            min_arrival[net] = float(marr_row[i])
            slew[net] = float(slw_row[i])
            a = int(best_row[i])
            trace[net] = (ct._arc_inst[a], ct._arc_pin[a])
        got = (arrival, min_arrival, slew, trace, launch_q)
        self._dicts[row] = got
        return got

    def report(self, clock: Clock, row: int = 0) -> TimingReport:
        """Assemble the engine-identical report for one batch row."""
        if self.marr is None:
            raise ValueError("a report needs a propagate with min arrivals")
        arrival, min_arrival, slew, trace, launch_q = self._as_dicts(row)
        return build_report(
            self.compiled.graph, clock, arrival, min_arrival, trace,
            launch_q, delay_derate=float(self.derates[row]),
            finite_guard=guard_enabled("finite"),
        )


class Endpoints:
    """The endpoint accounting of :func:`~repro.sta.engine.build_report`,
    vectorized over one compile.

    One entry per ``graph.endpoints()`` row, in that order: the endpoint
    net id, its derated wire delay and setup, and whether it is a
    register (and a transparent one, which borrows).  :meth:`periods`
    evaluates each endpoint's minimum period with the report's own
    expression order, so values are bitwise equal to the report's, and
    the first maximum is its critical endpoint (the report's sort is
    stable).  Nothing here depends on the clock until :meth:`periods`.

    Raises:
        _ArrayFallback: if an endpoint net has no arrival (only the
            object engine raises the exact error for it).
    """

    def __init__(self, compiled: CompiledTiming, delay_derate: float) -> None:
        graph = compiled.graph
        module = compiled.module
        defined = set(compiled._input_ids.tolist())
        defined.update(compiled._reg_ids.tolist())
        defined.update(compiled._out_net.tolist())
        nets: list[int] = []
        wire: list[float] = []
        setup: list[float] = []
        is_reg: list[bool] = []
        transparent: list[bool] = []
        for kind, detail in graph.endpoints():
            if kind == "port":
                net = str(detail)
                setup.append(0.0)
                is_reg.append(False)
                transparent.append(False)
            else:
                inst_name, pin = detail
                seq = graph.cell_of(inst_name).sequential
                net = module.instance(inst_name).inputs[pin]
                setup.append(seq.setup_ps * delay_derate)
                is_reg.append(True)
                transparent.append(bool(seq.transparent))
            nid = compiled._net_id(net)
            if nid is None or nid not in defined:
                raise _ArrayFallback(f"endpoint net {net!r} has no arrival")
            nets.append(nid)
            wire.append(graph.wire.delay(net) * delay_derate)
        self.net = np.asarray(nets, dtype=np.int64)
        self.wire = np.asarray(wire)
        self.setup = np.asarray(setup)
        self.is_reg = np.asarray(is_reg, dtype=bool)
        self.transparent = np.asarray(transparent, dtype=bool)

    def periods(self, state: ArrayState, clock: Clock) -> np.ndarray:
        """``(batch, endpoints)`` minimum period of every endpoint."""
        at = state.arr[:, self.net] + self.wire
        borrow = np.where(self.transparent, clock.borrow_window_ps, 0.0)
        mp = ((at + self.setup) + clock.skew_ps) - borrow
        np.maximum(mp, 1e-3, out=mp)
        return np.where(self.is_reg, mp, at)

    def critical_instances(self, state: ArrayState,
                           clock: Clock) -> list[str]:
        """Critical-path instances of batch row 0, source first."""
        worst = int(self.periods(state, clock)[0].argmax())
        return state.path_instances(int(self.net[worst]))


class ArrayClockRunner:
    """``run(clock) -> TimingReport`` over one fully propagated state.

    Arrival propagation does not depend on the clock (skew and borrowing
    enter at the endpoint accounting), so one state answers every clock
    of a period solve: :meth:`min_period_ps` from the vectorized
    :class:`Endpoints` alone, a call with a full report.  ``oracle``
    (an :class:`~repro.sta.engine.ObjectClockRunner` of the same
    netlist), when given, checks every answer against the object engine.
    """

    def __init__(self, state: ArrayState, endpoints: Endpoints,
                 oracle=None) -> None:
        self.state = state
        self._endpoints = endpoints
        self._oracle = oracle

    def __call__(self, clock: Clock) -> TimingReport:
        obs.count("sta.array.analyze.calls")
        report = self.state.report(clock)
        if self._oracle is not None:
            assert_reports_match(report, self._oracle(clock))
        return report

    def min_period_ps(self, clock: Clock) -> float:
        periods = self._endpoints.periods(self.state, clock)
        if not (periods.size and np.isfinite(periods).all()):
            # No endpoints or a non-finite one: the report raises the
            # exact error (or, with the finite guard off, sorts as the
            # object engine does).
            return self(clock).min_period_ps
        period = float(periods.max())
        if self._oracle is not None:
            checked = self(clock).min_period_ps
            if period != checked:
                raise ArrayCheckError(
                    f"array/object STA divergence: min period {period} "
                    f"vs {checked}"
                )
        return period


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _check_derate(delay_derate: float) -> None:
    if not (delay_derate > 0.0) or math.isinf(delay_derate):
        raise TimingError(
            f"delay derate must be a positive finite number, "
            f"got {delay_derate}"
        )


def compile_timing(
    module: Module,
    library: CellLibrary,
    wire: WireParasitics | None = None,
    output_load_ff: float | None = None,
) -> CompiledTiming:
    """Compile a netlist+library binding into levelized timing arrays."""
    return CompiledTiming(module, library, wire, output_load_ff)


def clock_analyzer(
    module: Module,
    library: CellLibrary,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
    delay_derate: float = 1.0,
    check: bool = False,
    state: ArrayState | None = None,
):
    """One compile + propagate, reusable across clocks.

    Returns an :class:`ArrayClockRunner`: ``run(clock)`` gives the
    report, ``run.min_period_ps(clock)`` the period alone.  ``state``
    is an already fully propagated :class:`ArrayState` of this netlist
    at these settings (a sizing session's final state); it is used
    instead of compiling again.  If the design needs the object engine
    the runner is an :class:`~repro.sta.engine.ObjectClockRunner`, a
    fresh :func:`analyze` per clock.  ``check`` verifies every answer
    against the object engine.
    """
    from repro.sta.engine import ObjectClockRunner

    _check_derate(delay_derate)
    oracle = ObjectClockRunner(
        module, library, wire=wire, input_slew_ps=input_slew_ps,
        input_arrival_ps=input_arrival_ps, output_load_ff=output_load_ff,
        delay_derate=delay_derate,
    )
    try:
        if state is None:
            compiled = compile_timing(module, library, wire, output_load_ff)
            state = compiled.propagate(
                input_slew_ps, input_arrival_ps, np.array([delay_derate])
            )
        endpoints = Endpoints(state.compiled, delay_derate)
    except _ArrayFallback:
        obs.count("sta.array.fallbacks")
        return oracle
    return ArrayClockRunner(state, endpoints, oracle if check else None)


def analyze_array(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
    delay_derate: float = 1.0,
    check: bool = False,
) -> TimingReport:
    """Drop-in vectorized :func:`repro.sta.engine.analyze`.

    Same arguments, same report, same errors; ``check=True`` also runs
    the object engine and raises :class:`ArrayCheckError` on any
    divergence (exact critical path, arrivals within 1e-9 ps).
    """
    return clock_analyzer(
        module, library, wire=wire, input_slew_ps=input_slew_ps,
        input_arrival_ps=input_arrival_ps, output_load_ff=output_load_ff,
        delay_derate=delay_derate, check=check,
    )(clock)


def batch_analyze(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    derates,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
) -> list[TimingReport]:
    """One report per derate from a single compile + batched propagate.

    The workhorse behind corner evaluation: the derate is a batch axis,
    so five corners cost one propagation.  Each row is bitwise equal to
    ``analyze(..., delay_derate=d)``.
    """
    derates = [float(d) for d in derates]
    for d in derates:
        _check_derate(d)
    try:
        compiled = compile_timing(module, library, wire, output_load_ff)
        state = compiled.propagate(
            input_slew_ps, input_arrival_ps, np.asarray(derates)
        )
    except _ArrayFallback:
        obs.count("sta.array.fallbacks")
        return [
            analyze(
                module, library, clock, wire=wire,
                input_slew_ps=input_slew_ps,
                input_arrival_ps=input_arrival_ps,
                output_load_ff=output_load_ff, delay_derate=d,
            )
            for d in derates
        ]
    obs.count("sta.array.analyze.calls", len(derates))
    return [state.report(clock, row) for row in range(len(derates))]


def monte_carlo_min_period_batched(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float = 0.05,
    samples: int = 200,
    seed: int = 1,
    wire: WireParasitics | None = None,
) -> np.ndarray:
    """Batched Monte Carlo minimum periods; bitwise equal to the
    sequential :func:`repro.sta.statistical.monte_carlo_min_period`.

    Samples run in chunks of :data:`MC_CHUNK` through a net-major
    ``(nets, chunk)`` arrival matrix, so level gathers and scatters are
    contiguous row copies.  Each chunk takes one ``(chunk, arcs + regs)``
    normal draw, whose row-major order is the sequential loop's
    per-sample order (the arc vector, then one jitter per register);
    the draw of chunk ``c + 1`` runs on a helper thread while chunk
    ``c`` sweeps.  That thread alone touches the generator, in chunk
    order, so the returned periods match element for element.
    """
    if samples < 1:
        raise TimingError("need at least one sample")
    profiling = obs.enabled()
    start_s = obs.MONOTONIC() if profiling else 0.0
    try:
        sweep, width = _mc_sweep(module, library, clock, sigma_fraction, wire)
    except _ArrayFallback:
        # The sequential path silently max-shadows NaNs and raises raw
        # KeyErrors on undriven nets; reproduce it rather than guess.
        from repro.sta.statistical import monte_carlo_min_period

        obs.count("sta.array.fallbacks")
        return monte_carlo_min_period(
            module, library, clock, sigma_fraction=sigma_fraction,
            samples=samples, seed=seed, wire=wire, batched=False,
        )

    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)

    def draw(c0: int) -> np.ndarray:
        cs = min(MC_CHUNK, samples - c0)
        return rng.normal(1.0, sigma_fraction, size=(cs, width))

    periods = np.empty(samples)
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for c0 in range(0, samples, MC_CHUNK):
            draws = pending.result()
            if c0 + MC_CHUNK < samples:
                pending = helper.submit(draw, c0 + MC_CHUNK)
            periods[c0:c0 + len(draws)] = sweep(draws)
    if profiling:
        obs.count("sta.array.mc.samples", samples)
        obs.observe(
            "sta.array.mc.samples_per_sec",
            samples / max(obs.MONOTONIC() - start_s, 1e-9),
        )
    return periods


def _segment_picks(segs: np.ndarray, counts: np.ndarray) -> list:
    """Row selectors whose running maximum is the per-segment maximum.

    Selector ``j`` picks each segment's ``j``-th row, repeating its last
    row for shorter segments (max is idempotent), so folding them with
    ``np.maximum`` equals ``np.maximum.reduceat(rows, segs, axis=0)``
    without reduceat's per-column inner loop.  Uniform arity ``k`` gets
    strided slices (views, no gather).
    """
    k = int(counts.max())
    if (counts == k).all():
        return [slice(j, None, k) for j in range(k)]
    return [segs + np.minimum(j, counts - 1) for j in range(k)]


def _mc_sweep(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float,
    wire: WireParasitics | None,
):
    """Compile the Monte Carlo sweep of one chunk of draws.

    Returns ``(sweep, width)``: ``sweep`` maps a ``(chunk, width)``
    block of normal draws to the chunk's minimum periods.  Raises
    :class:`_ArrayFallback` where only the sequential loop reproduces
    the result (non-finite inputs, undriven nets).
    """
    from repro.sta.statistical import _gate_delay_stats

    compiled = compile_timing(module, library, wire)
    graph = compiled.graph
    if compiled._fallback is not None:
        raise _ArrayFallback("uncompilable design")
    gate_stats = _gate_delay_stats(graph, module, sigma_fraction)
    keys = sorted(gate_stats)
    nominals = np.array([gate_stats[k][0] for k in keys])
    key_pos = {k: i for i, k in enumerate(keys)}
    arc_key = np.array(
        [
            key_pos[(inst, pin)]
            for inst, pin in zip(compiled._arc_inst, compiled._arc_pin)
        ],
        dtype=np.int64,
    )

    clkq: list[float] = []
    seq_net: list[int] = []
    seq_row: list[int] = []
    for i, name in enumerate(graph.sequential_instances()):
        clkq.append(graph.cell_of(name).sequential.clk_to_q_ps)
        for net in module.instance(name).outputs.values():
            seq_net.append(compiled._net_id(net))
            seq_row.append(i)

    # Undelayed rows (derate 1); an endpoint fed by a net no one
    # defines raises _ArrayFallback, and the sequential loop raises a
    # KeyError at the first sample.
    ends = Endpoints(compiled, 1.0)
    ep_net_a = ends.net
    ep_wire_a = ends.wire[:, None]
    ep_setup_a = ends.setup[:, None]
    ep_borrow_a = np.where(ends.transparent, clock.borrow_window_ps,
                           0.0)[:, None]
    ep_isreg_a = ends.is_reg[:, None]
    if not (
        math.isfinite(sigma_fraction)
        and np.isfinite(nominals).all()
        and np.isfinite(compiled._arc_wire).all()
        and np.isfinite(ep_wire_a).all()
        and math.isfinite(clock.skew_ps)
        and math.isfinite(clock.borrow_window_ps)
    ):
        raise _ArrayFallback("non-finite Monte Carlo input")

    n_keys = len(keys)
    clkq_a = np.asarray(clkq)
    seq_net_a = np.asarray(seq_net, dtype=np.int64)
    seq_row_a = np.asarray(seq_row, dtype=np.int64)
    levels = [
        (slice(lv["a0"], lv["a1"]), lv["src"], lv["wire"][:, None],
         _segment_picks(lv["segs"], lv["counts"]), lv["onet"], lv["owner"])
        for lv in compiled._levels
    ]

    def sweep(draws: np.ndarray) -> np.ndarray:
        cs = len(draws)
        # Row a holds arc a's delay for every sample of the chunk.
        delays = np.maximum(nominals * draws[:, :n_keys], 0.0).T[arc_key]
        launch = np.maximum(clkq_a * draws[:, n_keys:], 0.0).T
        arrv = np.full((compiled._n_nets, cs), np.nan)
        arrv[compiled._input_ids] = 0.0
        arrv[seq_net_a] = launch[seq_row_a]
        for arcs, src, wire_col, picks, onet, owner in levels:
            at = arrv[src]
            at += wire_col
            at += delays[arcs]
            mx = at[picks[0]]
            for pick in picks[1:]:
                np.maximum(mx, at[pick], out=mx)
            arrv[onet] = mx[owner]
        if not ep_net_a.size:
            return np.full(cs, -np.inf)
        t = arrv[ep_net_a] + ep_wire_a
        treg = ((t + ep_setup_a) + clock.skew_ps) - ep_borrow_a
        return np.where(ep_isreg_a, treg, t).max(axis=0)

    return sweep, n_keys + len(clkq)


# ----------------------------------------------------------------------
# check= equivalence
# ----------------------------------------------------------------------

#: Absolute tolerance of the check mode; the implementation is designed
#: for bitwise equality, the tolerance only decouples the contract from
#: that stronger property.
CHECK_ATOL_PS = 1e-9


def _near(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= CHECK_ATOL_PS


def assert_reports_match(
    array_report: TimingReport, object_report: TimingReport
) -> None:
    """Raise :class:`ArrayCheckError` unless the two reports agree.

    Critical path and endpoint identities must match exactly; times are
    compared to :data:`CHECK_ATOL_PS`.
    """

    def fail(what: str) -> None:
        raise ArrayCheckError(f"array/object STA divergence: {what}")

    a, o = array_report, object_report
    if not _near(a.min_period_ps, o.min_period_ps):
        fail(f"min period {a.min_period_ps} vs {o.min_period_ps}")
    if (a.critical.kind, a.critical.name) != (o.critical.kind, o.critical.name):
        fail(f"critical endpoint {a.critical.name} vs {o.critical.name}")
    if len(a.endpoints) != len(o.endpoints):
        fail("endpoint counts differ")
    for ea, eo in zip(a.endpoints, o.endpoints):
        if (ea.kind, ea.name) != (eo.kind, eo.name):
            fail(f"endpoint order {ea.name} vs {eo.name}")
        for field in (
            "data_arrival_ps", "min_period_ps", "launch_overhead_ps",
            "capture_overhead_ps", "skew_ps", "borrow_ps",
        ):
            if not _near(getattr(ea, field), getattr(eo, field)):
                fail(f"endpoint {ea.name} {field}")
    if len(a.critical_path) != len(o.critical_path):
        fail("critical path lengths differ")
    for sa, so in zip(a.critical_path, o.critical_path):
        if (sa.instance, sa.cell, sa.through_pin) != (
            so.instance, so.cell, so.through_pin
        ):
            fail(f"path step {sa.instance}.{sa.through_pin}")
        if not (_near(sa.delay_ps, so.delay_ps)
                and _near(sa.arrival_ps, so.arrival_ps)):
            fail(f"path timing at {sa.instance}")
    if len(a.hold_violations) != len(o.hold_violations):
        fail("hold violation counts differ")
    for ha, ho in zip(a.hold_violations, o.hold_violations):
        if ha.endpoint != ho.endpoint:
            fail(f"hold endpoint {ha.endpoint} vs {ho.endpoint}")
        if not (_near(ha.min_arrival_ps, ho.min_arrival_ps)
                and _near(ha.required_ps, ho.required_ps)):
            fail(f"hold timing at {ha.endpoint}")
