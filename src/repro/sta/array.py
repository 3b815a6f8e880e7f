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
and reduces per-instance segments with ``np.maximum.reduceat`` /
``np.minimum.reduceat``.  Max/min of floats is exact (no rounding), and
the first-max tie-break of the object engine is reproduced by taking the
minimum arc index among equality matches -- so arrivals, slews *and* the
critical-path trace are bitwise equal to ``analyze()``.

A batch may also vary coefficients by column: :class:`ArcOverrides`
gives each column its own coefficients for a few arcs (what a candidate
cell swap changes), so one sweep scores many sizing trials.

Oracle fallback
---------------

Anything outside the engineered-equal happy path -- undriven logic,
non-finite loads or arrivals, negative slews, unknown arc models --
raises the internal :class:`_ArrayFallback` and the caller delegates the
whole analysis to the object engine, which reproduces the exact error
(or the exact NaN-shadowing semantics when the finite guard is off).
``check=`` mode runs the object engine anyway and asserts equality, the
same belt-and-braces pattern as ``TimingSession(check=True)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.cells.delay import LinearDelayArc, NLDMArc, _bracket
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.sta.clocking import Clock
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW_PS,
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


def _kind_of(arc) -> int:
    if isinstance(arc, LinearDelayArc):
        return 0
    if isinstance(arc, NLDMArc):
        return 1
    return 2


class CompiledTiming:
    """A timing graph compiled to levelized arrays.

    Construction never raises for *semantic* problems (undriven nets,
    poisoned tables): those set a fallback reason and every
    :meth:`propagate` raises :class:`_ArrayFallback`, letting callers
    delegate to the object engine for the exact error.  Structure is
    immutable; coefficients can be re-derived for individual instances
    after a cell swap with :meth:`refresh` (what array sizing sessions
    do between trials).
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
            lv["segs"] = self._inst_seg[lv["i0"]:lv["i1"]] - lv["a0"]
            lv["counts"] = self._inst_narcs[lv["i0"]:lv["i1"]]
            lv["onet"] = self._out_net[lv["o0"]:lv["o1"]]
            owner = self._out_owner[lv["o0"]:lv["o1"]] - lv["i0"]
            # One output per instance (the usual case): a basic slice
            # selects the per-instance results as a view, no gather.
            single = np.array_equal(owner, np.arange(lv["i1"] - lv["i0"]))
            lv["owner"] = slice(None) if single else owner
            # Arc -> owning-instance column, for the first-max tie-break.
            lv["rep"] = np.repeat(np.arange(lv["i1"] - lv["i0"]), lv["counts"])
            lv["cols"] = np.arange(lv["a1"] - lv["a0"])
        self._levels = levels
        self._level_starts = [lv["a0"] for lv in levels] + [len(arc_src)]
        # Per-level (linear, NLDM) arc partitions; rebuilt on first use
        # after any arc changes kind (see _refresh_slot).
        self._plans: list[tuple] | None = None

        n_arcs = len(arc_src)
        self._kind = np.zeros(n_arcs, dtype=np.int8)
        self._k_const = np.full(n_arcs, np.nan)
        self._k_sens = np.full(n_arcs, np.nan)
        self._k_outslew = np.full(n_arcs, np.nan)
        self._inst_load = np.full(len(self._inst_names), np.nan)
        self._slot_bad = np.zeros(len(self._inst_names), dtype=bool)
        self._tab_p = 0
        self._tab_n = np.zeros(n_arcs, dtype=np.int64)
        self._tab_axis = np.empty((n_arcs, 0))
        self._tab_delay = np.empty((n_arcs, 0))
        self._tab_slew = np.empty((n_arcs, 0))

    def _net_id(self, net: str) -> int | None:
        return self._net_ids.get(net)

    def _grow_tables(self, points: int) -> None:
        pad = points - self._tab_p
        self._tab_axis = np.pad(
            self._tab_axis, ((0, 0), (0, pad)), constant_values=np.inf
        )
        self._tab_delay = np.pad(self._tab_delay, ((0, 0), (0, pad)))
        self._tab_slew = np.pad(self._tab_slew, ((0, 0), (0, pad)))
        self._tab_p = points

    def _build_coefficients(self) -> None:
        for slot in range(len(self._inst_names)):
            self._refresh_slot(slot)

    def _refresh_slot(self, slot: int) -> None:
        name = self._inst_names[slot]
        inst = self.module.instance(name)
        cell = self.graph.cell_of(name)
        load = self.graph.instance_load_ff(name)
        self._inst_load[slot] = load
        bad = not (math.isfinite(load) and load >= 0.0)
        a = int(self._inst_seg[slot])
        for pin in inst.inputs:
            try:
                arc = cell.arc(pin)
            except Exception:
                self._slot_bad[slot] = True
                return
            kind = _kind_of(arc)
            if self._kind[a] != kind:
                self._kind[a] = kind
                self._plans = None
            if kind == 0:
                # Same grouping as LinearDelayArc.delay_ps: the load
                # term folds into the constant, the slew term stays.
                self._k_const[a] = (
                    arc.parasitic_ps + arc.effort_ps_per_ff * load
                )
                self._k_sens[a] = arc.slew_sensitivity
                self._k_outslew[a] = max(
                    arc.min_output_slew_ps,
                    arc.slew_ratio
                    * (arc.parasitic_ps + arc.effort_ps_per_ff * load),
                )
                if not bad and not math.isfinite(self._k_const[a]):
                    bad = True
            elif kind == 1:
                if bad:
                    a += 1
                    continue
                n = len(arc.slew_axis_ps)
                if n > self._tab_p:
                    self._grow_tables(n)
                lo, hi, t = _bracket(arc.load_axis_ff, load)
                self._tab_n[a] = n
                self._tab_axis[a, :n] = arc.slew_axis_ps
                self._tab_axis[a, n:] = np.inf
                for r in range(n):
                    drow = arc.delay_table_ps[r]
                    srow = arc.slew_table_ps[r]
                    # Bitwise-identical to _bilinear's row interpolation
                    # at this load.
                    self._tab_delay[a, r] = drow[lo] * (1 - t) + drow[hi] * t
                    self._tab_slew[a, r] = srow[lo] * (1 - t) + srow[hi] * t
                if not (
                    np.isfinite(self._tab_delay[a, :n]).all()
                    and np.isfinite(self._tab_slew[a, :n]).all()
                ):
                    bad = True
            else:
                # Unknown arc model: only the object engine evaluates it
                # faithfully (including its exceptions).
                bad = True
            a += 1
        self._slot_bad[slot] = bad

    def refresh(self, instance_names) -> None:
        """Re-derive loads and arc coefficients for changed instances.

        Call after ``module.replace_cell`` + ``graph.rebind`` with the
        swapped instance and the drivers of its input nets (their loads
        changed).  Names without a combinational slot are ignored.
        """
        for name in instance_names:
            slot = self._slot_of.get(name)
            if slot is not None:
                self._refresh_slot(slot)

    def capture(self, instance_names) -> tuple:
        """Copy the current coefficients of some instances' arcs.

        Returns ``(arcs, kind, k_const, k_sens, k_outslew, tab_n,
        tab_axis, tab_delay, tab_slew)``, one entry per arc: one column
        of :class:`ArcOverrides`.  Names without a combinational slot
        are ignored.

        Raises:
            _ArrayFallback: if a captured slot needs the object engine.
        """
        arcs: list[int] = []
        for name in instance_names:
            slot = self._slot_of.get(name)
            if slot is None:
                continue
            if self._slot_bad[slot]:
                raise _ArrayFallback(f"instance {name!r} needs the object engine")
            a = int(self._inst_seg[slot])
            arcs.extend(range(a, a + int(self._inst_narcs[slot])))
        idx = np.asarray(arcs, dtype=np.int64)
        return (
            idx, self._kind[idx], self._k_const[idx], self._k_sens[idx],
            self._k_outslew[idx], self._tab_n[idx], self._tab_axis[idx],
            self._tab_delay[idx], self._tab_slew[idx],
        )

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _level_plans(self) -> list[tuple]:
        """Per level ``(linear arcs, NLDM arcs)`` as level-relative
        indices; the NLDM entry is None on an all-linear level."""
        if self._plans is None:
            plans = []
            for lv in self._levels:
                kind = self._kind[lv["a0"]:lv["a1"]]
                nld = np.nonzero(kind == 1)[0]
                plans.append(
                    (np.nonzero(kind == 0)[0], nld if nld.size else None)
                )
            self._plans = plans
        return self._plans

    def propagate(
        self,
        input_slew_ps: float,
        input_arrival_ps: float,
        derates: np.ndarray,
        overrides: "ArcOverrides | None" = None,
    ) -> "ArrayState":
        """Batched level-sweep propagation; one batch row per derate.

        ``overrides`` replaces, per batch row, the coefficients of a few
        arcs (see :class:`ArcOverrides`); every other arc uses the
        compiled ones.

        Raises:
            _ArrayFallback: when exact equivalence with the object
                engine cannot be guaranteed (the caller must delegate).
        """
        if self._fallback is not None:
            raise _ArrayFallback(self._fallback)
        if self._slot_bad.any():
            which = self._inst_names[int(np.nonzero(self._slot_bad)[0][0])]
            raise _ArrayFallback(f"instance {which!r} needs the object engine")
        if not (math.isfinite(input_slew_ps) and input_slew_ps >= 0.0):
            raise _ArrayFallback(f"input slew {input_slew_ps}")
        obs.count("sta.array.propagate.calls")
        derates = np.asarray(derates, dtype=np.float64)
        b = derates.shape[0]
        if overrides is not None and overrides.columns != b:
            raise ValueError(
                f"{overrides.columns} override columns for {b} derates"
            )
        n = self._n_nets
        arr = np.full((b, n), np.nan)
        marr = np.full((b, n), np.nan)
        slw = np.full((b, n), np.nan)
        best = np.full((b, n), -1, dtype=np.int64)
        arr[:, self._input_ids] = input_arrival_ps
        marr[:, self._input_ids] = input_arrival_ps
        slw[:, self._start_ids] = input_slew_ps
        if self._reg_ids.size:
            launch = self._reg_clkq[None, :] * derates[:, None]
            arr[:, self._reg_ids] = launch
            marr[:, self._reg_ids] = launch
        acc = np.zeros(b)
        rows = np.arange(b)[:, None]
        wire = self._arc_wire[None, :] * derates[:, None]
        plans = self._level_plans()
        for li, lv in enumerate(self._levels):
            a0, a1 = lv["a0"], lv["a1"]
            k = a1 - a0
            src = lv["src"]
            sl_in = slw[:, src]
            lin, nld = plans[li]
            hit = overrides is not None and overrides.hits(li)
            outsl = None
            if nld is None:
                delay = self._k_const[a0:a1] + self._k_sens[a0:a1] * sl_in
                if hit:
                    outsl = np.repeat(self._k_outslew[None, a0:a1], b, axis=0)
            else:
                delay = np.empty((b, k))
                outsl = np.empty((b, k))
                if lin.size:
                    delay[:, lin] = (
                        self._k_const[a0 + lin][None, :]
                        + self._k_sens[a0 + lin][None, :] * sl_in[:, lin]
                    )
                    outsl[:, lin] = self._k_outslew[a0 + lin][None, :]
                g = a0 + nld
                ax = self._tab_axis[g]
                nn = self._tab_n[g]
                x = sl_in[:, nld]
                hi = (ax[None, :, :] < x[:, :, None]).sum(axis=2)
                hi = np.clip(hi, 1, (nn - 1)[None, :])
                lo = hi - 1
                c = np.arange(nld.size)[None, :]
                alo = ax[c, lo]
                t = (x - alo) / (ax[c, hi] - alo)
                dt = self._tab_delay[g]
                st = self._tab_slew[g]
                delay[:, nld] = dt[c, lo] * (1 - t) + dt[c, hi] * t
                outsl[:, nld] = st[c, lo] * (1 - t) + st[c, hi] * t
            if hit:
                overrides.apply(li, a0, sl_in, delay, outsl)
            delay *= derates[:, None]
            w = wire[:, a0:a1]
            at = (arr[:, src] + w) + delay
            mat = (marr[:, src] + w) + delay
            acc += at.sum(axis=1)
            segs = lv["segs"]
            mx = np.maximum.reduceat(at, segs, axis=1)
            mn = np.minimum.reduceat(mat, segs, axis=1)
            cand = np.where(at == mx[:, lv["rep"]], lv["cols"], k)
            firsts = np.minimum.reduceat(cand, segs, axis=1)
            np.minimum(firsts, k - 1, out=firsts)
            if outsl is None:
                bslew = self._k_outslew[a0 + firsts]
            else:
                bslew = outsl[rows, firsts]
            onet, owner = lv["onet"], lv["owner"]
            arr[:, onet] = mx[:, owner]
            marr[:, onet] = mn[:, owner]
            slw[:, onet] = bslew[:, owner]
            best[:, onet] = (firsts + a0)[:, owner]
        if not np.isfinite(acc).all():
            # Cannot reproduce the engine's NaN handling (named error
            # with the guard on, max-shadowing with it off) with
            # np.maximum, which propagates NaN.
            raise _ArrayFallback("non-finite arrival accumulator")
        # Negative slews would make the object engine raise
        # DelayModelError at the consuming arc; delegate for that error.
        if self._out_net.size and not (slw[:, self._out_net] >= 0.0).all():
            raise _ArrayFallback("negative output slew")
        return ArrayState(
            self, arr, marr, slw, best, derates,
            float(input_slew_ps), float(input_arrival_ps),
        )


class ArcOverrides:
    """Per-column arc coefficients for one batched :meth:`propagate`.

    ``columns[j]`` is a :meth:`CompiledTiming.capture`: batch row ``j``
    evaluates those arcs with the captured coefficients instead of the
    compiled ones.  A sizing session captures each candidate swap's
    refreshed arcs this way, so one sweep scores every candidate.
    Overridden arcs are re-evaluated with the level sweep's own
    per-element expressions, so row ``j`` is bitwise equal to a width-1
    propagate after swap ``j`` alone.
    """

    def __init__(self, compiled: CompiledTiming, columns) -> None:
        self.columns = len(columns)
        fields = list(zip(*columns))
        col = np.repeat(np.arange(len(columns)), [len(c[0]) for c in columns])
        arc, kind, k_const, k_sens, k_outslew, tab_n = (
            np.concatenate(f) for f in fields[:6]
        )
        # Tables may have grown since a column was captured; pad the way
        # CompiledTiming._grow_tables does.
        width = compiled._tab_p
        axis, dtab, stab = (
            np.concatenate([
                t if t.shape[1] == width else np.pad(
                    t, ((0, 0), (0, width - t.shape[1])),
                    constant_values=fill,
                )
                for t in tables
            ])
            for tables, fill in zip(fields[6:], (np.inf, 0.0, 0.0))
        )
        starts = compiled._level_starts
        lin = np.nonzero(kind == 0)[0]
        lin = lin[np.argsort(arc[lin])]
        self._lin = (
            col[lin], arc[lin], k_const[lin], k_sens[lin], k_outslew[lin]
        )
        self._lin_at = np.searchsorted(arc[lin], starts)
        nld = np.nonzero(kind == 1)[0]
        nld = nld[np.argsort(arc[nld])]
        self._nld = (
            col[nld], arc[nld], tab_n[nld], axis[nld], dtab[nld], stab[nld]
        )
        self._nld_at = np.searchsorted(arc[nld], starts)
        self._hits = (
            (np.diff(self._lin_at) > 0) | (np.diff(self._nld_at) > 0)
        ).tolist()

    def hits(self, level: int) -> bool:
        """Whether any column overrides an arc of ``level``."""
        return self._hits[level]

    def apply(self, level: int, a0: int, sl_in: np.ndarray,
              delay: np.ndarray, outsl: np.ndarray) -> None:
        """Overwrite one level's overridden (row, arc) entries in place."""
        p0, p1 = self._lin_at[level], self._lin_at[level + 1]
        if p1 > p0:
            col, arc, k_const, k_sens, k_outslew = (
                v[p0:p1] for v in self._lin
            )
            c = arc - a0
            delay[col, c] = k_const + k_sens * sl_in[col, c]
            outsl[col, c] = k_outslew
        p0, p1 = self._nld_at[level], self._nld_at[level + 1]
        if p1 > p0:
            col, arc, nn, ax, dt, st = (v[p0:p1] for v in self._nld)
            c = arc - a0
            x = sl_in[col, c]
            hi = (ax < x[:, None]).sum(axis=1)
            hi = np.clip(hi, 1, nn - 1)
            lo = hi - 1
            r = np.arange(p1 - p0)
            alo = ax[r, lo]
            t = (x - alo) / (ax[r, hi] - alo)
            delay[col, c] = dt[r, lo] * (1 - t) + dt[r, hi] * t
            outsl[col, c] = st[r, lo] * (1 - t) + st[r, hi] * t


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

    def batch_size(self) -> int:
        return int(self.derates.shape[0])

    def row(self, j: int) -> "ArrayState":
        """Batch row ``j`` as a width-1 state (views, not copies)."""
        s = slice(j, j + 1)
        return ArrayState(
            self.compiled, self.arr[s], self.marr[s], self.slw[s],
            self.best[s], self.derates[s], self._input_slew,
            self._input_arrival,
        )

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
        from repro.sta.engine import _finite_guard_active

        arrival, min_arrival, slew, trace, launch_q = self._as_dicts(row)
        return build_report(
            self.compiled.graph, clock, arrival, min_arrival, trace,
            launch_q, delay_derate=float(self.derates[row]),
            finite_guard=_finite_guard_active(),
        )


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
):
    """One compile + propagate, reusable across clocks.

    Arrival propagation does not depend on the clock (skew/borrowing
    enter at the endpoint accounting), so iterative period solving can
    pay for the propagation once and re-derive only reports.  Returns a
    ``run(clock) -> TimingReport`` callable; if the design needs the
    object engine the callable delegates to :func:`analyze` per call.
    """
    _check_derate(delay_derate)

    def run_object(clk: Clock) -> TimingReport:
        return analyze(
            module, library, clk, wire=wire, input_slew_ps=input_slew_ps,
            input_arrival_ps=input_arrival_ps, output_load_ff=output_load_ff,
            delay_derate=delay_derate,
        )

    try:
        compiled = compile_timing(module, library, wire, output_load_ff)
        state = compiled.propagate(
            input_slew_ps, input_arrival_ps, np.array([delay_derate])
        )
    except _ArrayFallback:
        obs.count("sta.array.fallbacks")
        return run_object

    def run(clk: Clock) -> TimingReport:
        obs.count("sta.array.analyze.calls")
        report = state.report(clk)
        if check:
            assert_reports_match(report, run_object(clk))
        return report

    return run


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
    if compiled._fallback is not None or compiled._slot_bad.any():
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

    ep_net: list[int] = []
    ep_wire: list[float] = []
    ep_setup: list[float] = []
    ep_borrow: list[float] = []
    ep_isreg: list[bool] = []
    for kind, detail in graph.endpoints():
        if kind == "port":
            net = str(detail)
            ep_setup.append(0.0)
            ep_borrow.append(0.0)
            ep_isreg.append(False)
        else:
            inst_name, pin = detail
            cell = graph.cell_of(inst_name)
            net = module.instance(inst_name).inputs[pin]
            ep_setup.append(cell.sequential.setup_ps)
            ep_borrow.append(
                clock.borrow_window_ps if cell.sequential.transparent else 0.0
            )
            ep_isreg.append(True)
        idx = compiled._net_id(net)
        if idx is None:
            # Endpoint fed by a net no one defines: the sequential loop
            # raises a KeyError at the first sample.
            raise _ArrayFallback(f"undriven endpoint net {net!r}")
        ep_net.append(idx)
        ep_wire.append(graph.wire.delay(net))
    ep_net_a = np.asarray(ep_net, dtype=np.int64)
    ep_wire_a = np.asarray(ep_wire)[:, None]
    ep_setup_a = np.asarray(ep_setup)[:, None]
    ep_borrow_a = np.asarray(ep_borrow)[:, None]
    ep_isreg_a = np.asarray(ep_isreg, dtype=bool)[:, None]
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
