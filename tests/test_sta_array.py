"""Array timing engine: exact equivalence with the object engine.

The contract under test is *bitwise* agreement: the vectorized engine
(:mod:`repro.sta.array`) preserves the object engine's floating-point
expression shapes, so every arrival, slew, trace and minimum period it
produces must equal ``analyze()``'s output exactly -- ``check=True``
modes assert that on every call, and these tests drive them across
libraries, workloads, derates, parasitics and NLDM tables.  The batched
Monte Carlo path must reproduce the sequential sampler's population
bit-for-bit from the same seed.  Also pinned here: the multi-output
instance-load regressions.
"""

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cells import (
    LinearDelayArc,
    NLDMArc,
    custom_library,
    poor_asic_library,
    rich_asic_library,
)
import repro
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.netlist import Module
from repro import obs
from repro.par.session import ArrayTimingSession, TimingSession
from repro.robust.faults import FaultInjector
from repro.sta import (
    ArrayCheckError,
    TimingError,
    WireParasitics,
    analyze,
    analyze_array,
    asic_clock,
    batch_analyze,
    custom_clock,
    monte_carlo_min_period,
    register_boundaries,
    solve_min_period,
)
from repro.sta.array import (
    MC_CHUNK,
    UNCHANGED,
    _ArrayFallback,
    assert_reports_match,
    clock_analyzer,
    compile_timing,
)
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS
from repro.sta.statistical import _gate_delay_stats
from repro.sta.timing_graph import TimingGraph
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM
from repro.tech.corners import evaluate_corners

CLK = asic_clock(10000.0)


def mapped(text, library, drive=1.0):
    return map_design({"y": parse_expression(text)}, library,
                      default_drive=drive)


def nldm_library():
    """Rich library with every combinational arc converted to a table."""
    lib = rich_asic_library(CMOS250_ASIC)
    for cell in lib:
        if cell.is_sequential:
            continue
        for pin, arc in list(cell.arcs.items()):
            if isinstance(arc, LinearDelayArc):
                cell.arcs[pin] = NLDMArc.from_linear(arc, max_load_ff=200.0)
    return lib


def multi_output_module():
    """An instance driving two output nets with very different loads."""
    m = Module("multi_out")
    m.add_input("a")
    m.add_input("b")
    m.add_instance("g0", "NAND2_X2", inputs={"A": "a", "B": "b"},
                   outputs={"Y": "y1", "Z": "y2"})
    m.add_instance("s1", "INV_X1", inputs={"A": "y1"}, outputs={"Y": "o1"})
    m.add_instance("s2", "INV_X4", inputs={"A": "y2"}, outputs={"Y": "o2"})
    m.add_output("o1")
    m.add_output("o2")
    return m


def assert_exact(array_report, object_report):
    assert_reports_match(array_report, object_report)
    assert array_report.min_period_ps == object_report.min_period_ps


class TestArrayEquivalence:
    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC),
        poor_asic_library(CMOS250_ASIC),
        custom_library(CMOS250_CUSTOM),
    ], ids=["rich", "poor", "custom"])
    @pytest.mark.parametrize("builder", [
        lambda lib: register_boundaries(ripple_carry_adder(4, lib), lib),
        lambda lib: register_boundaries(kogge_stone_adder(8, lib), lib),
        lambda lib: mapped("(a & b) | (~c & d)", lib),
    ], ids=["ripple4", "kogge8", "mapped"])
    def test_matches_object_engine(self, library, builder):
        module = builder(library)
        obj = analyze(module, library, CLK)
        arr = analyze_array(module, library, CLK, check=True)
        assert_exact(arr, obj)

    @pytest.mark.parametrize("derate", [1.0, 1.65, 1.0 / 1.30])
    def test_derates_and_parasitics(self, derate):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        wire = WireParasitics(
            extra_cap_ff={"s0": 25.0}, extra_delay_ps={"s1": 140.0}
        )
        obj = analyze(module, lib, CLK, wire=wire, delay_derate=derate,
                      input_arrival_ps=150.0)
        arr = analyze_array(module, lib, CLK, wire=wire,
                            delay_derate=derate, input_arrival_ps=150.0,
                            check=True)
        assert_exact(arr, obj)

    def test_nldm_tables(self):
        lib = nldm_library()
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        obj = analyze(module, lib, CLK)
        arr = analyze_array(module, lib, CLK, check=True)
        assert_exact(arr, obj)

    def test_multi_output_instances(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        obj = analyze(module, lib, CLK)
        arr = analyze_array(module, lib, CLK, check=True)
        assert_exact(arr, obj)

    def test_clock_analyzer_reuses_propagation(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(8, lib), lib)
        run = clock_analyzer(module, lib)
        for period in (500.0, 2000.0, 12000.0):
            clk = asic_clock(period)
            assert_exact(run(clk), analyze(module, lib, clk))

    def test_solve_min_period_array_matches_object(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        fast = solve_min_period(module, lib, CLK, use_array=True)
        slow = solve_min_period(module, lib, CLK, use_array=False)
        assert fast.min_period_ps == slow.min_period_ps
        check = solve_min_period(module, lib, CLK, check_array=True)
        assert check.min_period_ps == fast.min_period_ps

    def test_undriven_logic_raises_engine_error(self):
        lib = rich_asic_library(CMOS250_ASIC)
        m = Module("undriven")
        m.add_instance("g", "INV_X1", inputs={"A": "floating"},
                       outputs={"Y": "y"})
        m.add_output("y")
        with pytest.raises(TimingError, match="no arrival"):
            analyze_array(m, lib, CLK)

    def test_poisoned_arc_falls_back_to_object_engine(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        FaultInjector(3).inject_nan(lib, module)
        with pytest.raises(TimingError):
            analyze(module, lib, CLK)
        with pytest.raises(TimingError):
            analyze_array(module, lib, CLK)


class TestBatchedAnalysis:
    def test_batch_analyze_matches_per_derate(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        derates = [1.65, 1.30, 1.0, 1.0 / 1.15, 1.0 / 1.30]
        reports = batch_analyze(module, lib, CLK, derates)
        for derate, rep in zip(derates, reports):
            assert_exact(rep, analyze(module, lib, CLK,
                                      delay_derate=derate))

    def test_evaluate_corners_array_equals_object(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(8, lib), lib)
        fast = evaluate_corners(module, lib, CLK)
        slow = evaluate_corners(module, lib, CLK, use_array=False)
        assert set(fast) == set(slow)
        for corner in fast:
            assert fast[corner].min_period_ps == slow[corner].min_period_ps


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("seed,sigma", [(1, 0.05), (9, 0.12)])
    def test_bitwise_equal_to_sequential(self, seed, sigma):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        wire = WireParasitics(extra_delay_ps={"s2": 90.0})
        batched = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=sigma, samples=333,
            seed=seed, wire=wire,
        )
        sequential = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=sigma, samples=333,
            seed=seed, wire=wire, batched=False,
        )
        assert np.array_equal(batched, sequential)

    def test_zero_sigma_is_deterministic(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        periods = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=0.0, samples=5, seed=2
        )
        assert len(set(periods.tolist())) == 1

    def test_multi_output_module_matches_sequential(self):
        # Regression: _gate_delay_stats used to take only the first
        # output net's load, diverging from the deterministic engine.
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        batched = monte_carlo_min_period(
            module, lib, CLK, samples=64, seed=5
        )
        sequential = monte_carlo_min_period(
            module, lib, CLK, samples=64, seed=5, batched=False
        )
        assert np.array_equal(batched, sequential)

    @pytest.mark.parametrize(
        "samples",
        [1, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 37],
    )
    def test_chunk_boundaries_match_sequential(self, samples):
        lib = poor_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(4, lib), lib)
        # Some level mixes gate arities: the per-instance max takes its
        # gathered (not strided-slice) path there.
        levels = compile_timing(module, lib)._levels
        assert any(len(set(lv["counts"].tolist())) > 1 for lv in levels)
        threads = threading.active_count()
        batched = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=0.1, samples=samples, seed=7
        )
        assert threading.active_count() == threads
        sequential = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=0.1, samples=samples, seed=7,
            batched=False,
        )
        assert np.array_equal(batched, sequential)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_scaled_standard_normal_is_normal_bitwise(self, seed):
        # The batched kernel draws standard normals and scales them
        # itself; that equals rng.normal only while numpy computes
        # loc + scale * z with two roundings (no fused multiply-add).
        shape = (MC_CHUNK + 1, 37)
        for sigma in (0.0, 0.05, 0.12):
            normal = np.random.default_rng(seed).normal(1.0, sigma, shape)
            z = np.random.default_rng(seed).standard_normal(shape)
            assert np.array_equal(normal, z * sigma + 1.0), (
                f"rng.normal(1.0, {sigma}) is not standard_normal * "
                f"{sigma} + 1.0 bit for bit on numpy {np.__version__}"
            )

    def test_draw_error_surfaces_and_joins_helper(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        threads = threading.active_count()
        for batched in (True, False):
            with pytest.raises(ValueError, match=r"^scale < 0$"):
                monte_carlo_min_period(
                    module, lib, CLK, sigma_fraction=-0.05,
                    samples=MC_CHUNK + 1, seed=3, batched=batched,
                )
        assert threading.active_count() == threads

    @staticmethod
    def _assert_falls_back_to_sequential(module, lib, **kwargs):
        """The batched path takes its one fallback exit and reproduces
        the sequential outcome: equal periods (NaN-aware) or the same
        exception type and message.  The first draw starts before the
        fallback is decided, so no helper thread may outlive the call."""
        try:
            expected = monte_carlo_min_period(
                module, lib, CLK, batched=False, **kwargs
            )
        except Exception as exc:  # noqa: BLE001 - compared below
            expected = exc
        threads = threading.active_count()
        obs.enable()
        try:
            if isinstance(expected, Exception):
                with pytest.raises(
                    type(expected), match=f"^{re.escape(str(expected))}$"
                ):
                    monte_carlo_min_period(module, lib, CLK, **kwargs)
            else:
                got = monte_carlo_min_period(module, lib, CLK, **kwargs)
                assert np.array_equal(got, expected, equal_nan=True)
            fallbacks = obs.get_metrics().counter("sta.array.fallbacks")
            assert fallbacks.value() == 1
            assert threading.active_count() == threads
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_falls_back(self, sigma):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        self._assert_falls_back_to_sequential(
            module, lib, sigma_fraction=sigma, samples=40, seed=2
        )

    def test_nan_arc_nominal_falls_back(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        FaultInjector(3).inject_nan(lib, module)
        self._assert_falls_back_to_sequential(
            module, lib, samples=40, seed=2
        )

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_endpoint_wire_falls_back(self, delay):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        # s2_pre only feeds its output register's D pin: the endpoint
        # wire is non-finite while every arc wire stays finite.
        wire = WireParasitics(extra_delay_ps={"s2_pre": delay})
        assert np.isfinite(compile_timing(module, lib, wire)._arc_wire).all()
        self._assert_falls_back_to_sequential(
            module, lib, samples=40, seed=2, wire=wire
        )


class TestArraySession:
    def test_randomized_swap_sequence_matches_object_session(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        obj = TimingSession(module.clone(), lib, CLK)
        arr = ArrayTimingSession(module.clone(), lib, CLK, check=True)
        assert obj.min_period_ps() == arr.min_period_ps()
        rng = random.Random(42)
        comb = [
            name for name in module.instances
            if not lib.get(module.instance(name).cell_name).is_sequential
        ]
        drives = ["X1", "X2", "X4"]
        for _ in range(15):
            name = rng.choice(comb)
            base = lib.get(obj.module.instance(name).cell_name).base_name
            candidates = [
                c.name for c in lib.drives_of(base)
            ]
            target = rng.choice(candidates)
            assert obj.trial(name, target) == arr.trial(name, target)
            if rng.random() < 0.5:
                obj.commit(name, target)
                arr.commit(name, target)
                assert obj.min_period_ps() == arr.min_period_ps()
                assert obj.critical_instances() == arr.critical_instances()
                assert_reports_match(arr.report(), obj.report())
        assert_reports_match(arr.report(), obj.report())

    def test_sequential_swap_rejected(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        session = ArrayTimingSession(module, lib, CLK)
        seq = next(
            name for name in module.instances
            if lib.get(module.instance(name).cell_name).is_sequential
        )
        with pytest.raises(TimingError, match="sequential"):
            session.trial(seq, "INV_X1")

    def test_poisoned_design_degrades_to_object_session(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        FaultInjector(3).inject_nan(lib, module)
        with pytest.raises(TimingError):
            ArrayTimingSession(module, lib, CLK)


def mixed_library():
    """Rich library with 6-point NLDM X3 cells and 9-point NLDM X4 cells.

    On a :func:`staggered` netlist, upsizing then changes arc models
    (linear X2 -> table X3) and grows the compiled table width (X3 -> X4),
    the two awkward cases for per-column coefficient overrides.
    """
    lib = rich_asic_library(CMOS250_ASIC)
    for cell in lib:
        points = {3.0: 6, 4.0: 9}.get(cell.drive)
        if cell.is_sequential or points is None:
            continue
        for pin, arc in list(cell.arcs.items()):
            cell.arcs[pin] = NLDMArc.from_linear(
                arc, max_load_ff=200.0, points=points
            )
    return lib


def upsizing_moves(module, library):
    """One (instance, next-stronger cell) move per resizable instance."""
    moves = []
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            continue
        stronger = [c for c in library.drives_of(cell.base_name)
                    if c.drive > cell.drive]
        if stronger:
            moves.append((inst.name, stronger[0].name))
    return moves


def staggered(module, library):
    """Upsize every other resizable instance one drive step, in place."""
    for inst, cell in upsizing_moves(module, library)[::2]:
        module.replace_cell(inst, cell)
    return module


class TestBatchedTrials:
    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC), nldm_library(), mixed_library(),
    ], ids=["linear", "nldm", "mixed"])
    def test_columns_equal_single_swap_sweeps(self, library):
        module = staggered(
            register_boundaries(kogge_stone_adder(8, library), library),
            library,
        )
        session = ArrayTimingSession(module, library, CLK)
        compiled = session._compiled
        # Weakest targets first: the oracle's table-growing swaps come
        # after columns of narrower tables, which must still line up.
        moves = sorted(upsizing_moves(module, library),
                       key=lambda move: library.get(move[1]).drive)
        singles, columns = [], []
        for inst, cell in moves:
            old = module.instance(inst).cell_name
            columns.append(session._stage(inst, cell))
            session._swap(inst, cell)
            singles.append(compiled.propagate(
                DEFAULT_INPUT_SLEW_PS, 0.0, np.array([1.0])
            ))
            session._swap(inst, old)
        columns.append(UNCHANGED)  # times the compiled netlist
        batch = compiled.propagate(
            DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(len(columns)),
            compiled.coefficients(columns),
        )
        base = compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(1))
        for j, single in enumerate(singles + [base]):
            for field in ("arr", "marr", "slw", "best"):
                assert np.array_equal(
                    getattr(batch, field)[j], getattr(single, field)[0],
                    equal_nan=True,
                ), (j, field)

    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC), mixed_library(),
        custom_library(CMOS250_CUSTOM),
    ], ids=["linear", "mixed", "continuous"])
    def test_trials_equal_per_move_trials(self, library):
        module = staggered(
            register_boundaries(ripple_carry_adder(6, library), library),
            library,
        )
        session = ArrayTimingSession(module.clone(), library, CLK)
        oracle = TimingSession(module.clone(), library, CLK)
        moves = upsizing_moves(module, library)
        batched = session.trials(moves)
        assert batched == [session.trial(i, c) for i, c in moves]
        assert batched == oracle.trials(moves)
        assert session.trials([]) == []

    def test_poisoned_candidate_raises_the_sequential_error(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        moves = upsizing_moves(module, lib)
        poisoned = lib.get(moves[2][1])
        pin = sorted(poisoned.arcs)[0]
        poisoned.arcs[pin] = LinearDelayArc(
            parasitic_ps=float("nan"), effort_ps_per_ff=1.0
        )
        session = ArrayTimingSession(module, lib, CLK)
        with pytest.raises(TimingError) as sequential:
            [session.trial(i, c) for i, c in moves]
        with pytest.raises(TimingError) as batched:
            session.trials(moves)
        assert str(batched.value) == str(sequential.value)
        # The failed batch left the session exactly as it was.
        assert session.report() == analyze(module, lib, CLK)

    def test_poisoned_candidate_without_guard_gives_sequential_periods(self):
        from repro.robust.guards import disable_guard, enable_all_guards

        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        moves = upsizing_moves(module, lib)
        poisoned = lib.get(moves[1][1])
        for pin in poisoned.arcs:
            poisoned.arcs[pin] = LinearDelayArc(
                parasitic_ps=float("nan"), effort_ps_per_ff=1.0
            )
        session = ArrayTimingSession(module, lib, CLK)
        disable_guard("finite")
        try:
            sequential = [session.trial(i, c) for i, c in moves]
            batched = session.trials(moves)
        finally:
            enable_all_guards()
        assert np.array_equal(batched, sequential, equal_nan=True)

    def test_rejected_move_raises_like_trial(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        seq = next(
            name for name in module.instances
            if lib.get(module.instance(name).cell_name).is_sequential
        )
        session = ArrayTimingSession(module, lib, CLK)
        moves = upsizing_moves(module, lib)[:3] + [(seq, "INV_X1")]
        with pytest.raises(TimingError, match="sequential"):
            session.trials(moves)
        assert session.report() == analyze(module, lib, CLK)

    def test_coefficient_rows_must_match_derates(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        compiled = ArrayTimingSession(module, lib, CLK)._compiled
        with pytest.raises(ValueError, match="coefficient rows"):
            compiled.propagate(
                DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(2),
                compiled.coefficients([UNCHANGED]),
            )


def drive_ladder(module, library):
    """Set the resizable instances to drives 1, 2, 3, 4 in turn, in place.

    On :func:`mixed_library` their upsizing moves then change every kind
    of arc: linear to linear (X1 -> X2), linear to table (X2 -> X3), table
    to a wider table (X3 -> X4) and table to linear (X4 -> X6).
    """
    for k, inst in enumerate(list(module.iter_instances())):
        cell = library.get(inst.cell_name)
        if not cell.is_sequential:
            drive = (1.0, 2.0, 3.0, 4.0)[k % 4]
            module.replace_cell(inst.name, next(
                c.name for c in library.drives_of(cell.base_name)
                if c.drive == drive))
    return module


def swap_columns(session, moves):
    """Per move: a width-1 propagate with only that swap made (lean and
    full, at derate 1 and 1.17) and the swap's staged column."""
    compiled = session._compiled
    singles, columns = [], []
    for inst, cell in moves:
        old = session.module.instance(inst).cell_name
        columns.append(session._stage(inst, cell))
        session._swap(inst, cell)
        singles.append({
            (derate, full): compiled.propagate(
                DEFAULT_INPUT_SLEW_PS, 0.0, np.array([derate]),
                min_arrivals=full)
            for derate in (1.0, 1.17) for full in (True, False)
        })
        session._swap(inst, old)
    return singles, columns


class TestPerRowSweep:
    @pytest.mark.parametrize("full", [True, False], ids=["full", "lean"])
    @pytest.mark.parametrize("derate", [1.0, 1.17])
    def test_rows_equal_width_one_propagates(self, derate, full):
        lib = mixed_library()
        module = drive_ladder(
            register_boundaries(kogge_stone_adder(8, lib), lib), lib)
        session = ArrayTimingSession(module, lib, CLK)
        compiled = session._compiled
        singles, columns = swap_columns(session, upsizing_moves(module, lib))
        rows = compiled.coefficients(columns)
        # Both kinds of per-row entries: linear over a compiled table
        # arc, and a column's own table arc.
        assert any(fix and fix[0] is not None for fix in rows[3])
        assert any(fix and fix[1] is not None for fix in rows[3])
        batch = compiled.propagate(
            DEFAULT_INPUT_SLEW_PS, 0.0, np.full(len(columns), derate), rows,
            min_arrivals=full)
        for j, single in enumerate(singles):
            want = single[derate, full]
            for field in ("arr", "marr", "slw", "best"):
                got, ref = getattr(batch, field), getattr(want, field)
                assert (got is None and ref is None) or np.array_equal(
                    got[j], ref[0], equal_nan=True), (j, field)

    def test_equal_arrival_ties_pick_the_first_arc(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = tied_design()
        session = ArrayTimingSession(module, lib, CLK)
        compiled = session._compiled
        # Row 1 upsizes g3, which loads n1 and n2 alike: g3 and g4 still
        # see equal arrivals on both pins, and y2 becomes critical.
        columns = [UNCHANGED, session._stage("g3", "NAND2_X2")]
        batch = compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(2),
                                   compiled.coefficients(columns))
        n1, n2 = (compiled._net_id(n) for n in ("n1", "n2"))
        assert (batch.arr[:, n1] == batch.arr[:, n2]).all()
        first = batch.row(0).report(CLK)
        assert first == analyze(module, lib, CLK)
        module.replace_cell("g3", "NAND2_X2")
        second = batch.row(1).report(CLK)
        assert second == analyze(module, lib, CLK)
        # Each NAND's first-listed pin wins its tie.
        assert path_instances(first) == ["g1", "g3"]
        assert path_instances(second) == ["g2", "g4"]

    @pytest.mark.parametrize("field,value,reason", [
        (1, np.inf, "non-finite arrival"),
        (3, -1.0, "negative output slew"),
    ], ids=["k_const_inf", "outslew_negative"])
    def test_bad_rows_fall_back(self, field, value, reason):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        session = ArrayTimingSession(module, lib, CLK)
        compiled = session._compiled
        arcs, coeffs = session._stage(*upsizing_moves(module, lib)[0])
        coeffs = [(*c[:field], value, *c[field + 1:]) for c in coeffs]
        rows = compiled.coefficients([UNCHANGED, (arcs, coeffs)])
        with pytest.raises(_ArrayFallback, match=reason):
            compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(2), rows,
                               min_arrivals=False)


#: Every coefficient and table array of a compile.
COMPILED_ARRAYS = ("_kind", "_k", "_tab_n", "_tab_axis", "_tab_delay",
                   "_tab_slew")


def session_snapshot(session):
    """What pricing a candidate must not change: the module's cells, the
    graph's bindings, the compiled arrays, table width and level plans."""
    compiled = session._compiled
    return (
        {i.name: i.cell_name for i in session.module.iter_instances()},
        dict(session._graph._cells),
        [getattr(compiled, name).copy() for name in COMPILED_ARRAYS],
        compiled._tab_p,
        compiled._plans,
    )


def at_drive(module, library, drive):
    """Set every resizable instance with a ``drive`` variant to it."""
    for inst in list(module.iter_instances()):
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            continue
        for variant in library.drives_of(cell.base_name):
            if variant.drive == drive:
                module.replace_cell(inst.name, variant.name)
    return module


class TestStagedColumns:
    """A candidate is priced, never made: staging changes nothing, and a
    column is what a fresh compile of the swapped netlist gives."""

    def test_trials_leave_the_session_untouched(self):
        lib = mixed_library()
        module = drive_ladder(
            register_boundaries(kogge_stone_adder(8, lib), lib), lib)
        session = ArrayTimingSession(module, lib, CLK)
        names, cells, arrays, tab_p, plans = session_snapshot(session)
        assert plans is not None
        moves = upsizing_moves(module, lib)
        session.trials(moves)
        session.trial(*moves[-1])
        got = session_snapshot(session)
        assert got[0] == names
        assert got[1].keys() == cells.keys()
        assert all(got[1][name] is cell for name, cell in cells.items())
        for name, after, before in zip(COMPILED_ARRAYS, got[2], arrays):
            assert np.array_equal(after, before, equal_nan=True), name
        assert got[3] == tab_p
        assert got[4] is plans

    def test_candidate_table_wider_than_every_compiled_one(self):
        lib = mixed_library()
        module = at_drive(
            register_boundaries(kogge_stone_adder(8, lib), lib), lib, 3.0)
        session = ArrayTimingSession(module, lib, CLK)
        compiled = session._compiled
        assert compiled._tab_p == 6
        # Every move goes to a 9-point X4 table.
        moves = upsizing_moves(module, lib)
        assert {lib.get(cell).drive for _, cell in moves} == {4.0}
        periods = session.trials(moves)
        state = session._batch[1]
        assert compiled._tab_p == 6
        singles, _ = swap_columns(session, moves)
        for j, single in enumerate(singles):
            want = single[1.0, False]
            for field in ("arr", "slw", "best"):
                assert np.array_equal(getattr(state, field)[j],
                                      getattr(want, field)[0]), (j, field)
        assert periods == TimingSession(module, lib, CLK).trials(moves)

    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC), mixed_library(),
    ], ids=["linear", "mixed"])
    def test_columns_equal_a_fresh_compile_of_the_swap(self, library):
        module = drive_ladder(
            register_boundaries(kogge_stone_adder(8, library), library),
            library,
        )
        session = ArrayTimingSession(module, library, CLK)
        compiled = session._compiled

        def changed(fresh):
            """Arcs whose coefficients differ between two compiles."""
            width = min(fresh._tab_p, compiled._tab_p)
            rows = [
                (getattr(fresh, name) != getattr(compiled, name))
                & ~(np.isnan(getattr(fresh, name))
                    & np.isnan(getattr(compiled, name)))
                for name in ("_k_const", "_k_sens", "_k_outslew")
            ] + [fresh._kind != compiled._kind,
                 fresh._tab_n != compiled._tab_n]
            rows += [(getattr(fresh, name)[:, :width]
                      != getattr(compiled, name)[:, :width]).any(axis=1)
                     for name in ("_tab_delay", "_tab_slew")]
            return set(np.nonzero(np.logical_or.reduce(rows))[0].tolist())

        for inst, cell in upsizing_moves(module, library):
            arcs, coeffs = session._stage(inst, cell)
            swapped = module.clone()
            swapped.replace_cell(inst, cell)
            fresh = compile_timing(swapped, library)
            # Every arc the swap moves is in its column (no driver is
            # missing), and the column holds the fresh compile's values.
            assert changed(fresh) <= set(arcs), (inst, cell)
            for a, (kind, k_const, k_sens, k_outslew, table) in zip(
                    arcs, coeffs):
                assert kind == fresh._kind[a]
                if table is None:
                    assert (k_const, k_sens, k_outslew) == (
                        fresh._k_const[a], fresh._k_sens[a],
                        fresh._k_outslew[a]), (inst, a)
                    continue
                n = fresh._tab_n[a]
                assert list(table[0]) == fresh._tab_axis[a, :n].tolist()
                assert table[1] == fresh._tab_delay[a, :n].tolist()
                assert table[2] == fresh._tab_slew[a, :n].tolist()


def assert_fresh_state(state, module, library):
    """``state`` is bitwise what a fresh compile + propagate gives (a
    lean state, without min arrivals, what a lean propagate gives)."""
    fresh = compile_timing(module, library).propagate(
        DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(1),
        min_arrivals=state.marr is not None,
    )
    for field in ("arr", "marr", "slw", "best"):
        got, want = getattr(state, field), getattr(fresh, field)
        assert (got is None and want is None) or np.array_equal(
            got, want, equal_nan=True
        ), field


def inverter_chain(library, names="abcd"):
    """Input -> a -> b -> c -> d -> output, all at minimum drive."""
    module = Module("chain")
    prev = module.add_input("x")
    module.add_output("y")
    for i, name in enumerate(names):
        out = "y" if i == len(names) - 1 else f"n_{name}"
        module.add_instance(name, "INV_X1", inputs={"A": prev},
                            outputs={"Y": out})
        prev = out
    return module


class TestMoveSweepReuse:
    """A sizing move costs one batched sweep: commits adopt the scored
    column, staged columns persist until a commit touches them, and the
    level plan is rebuilt only when an arc changes kind."""

    @pytest.fixture
    def checked_commits(self, monkeypatch):
        """Check every array commit against a fresh compile and the
        object engine; yields whether each commit adopted a column."""
        adopted = []
        original = ArrayTimingSession.commit

        def commit(self, instance, cell_name):
            adopted.append(self._scored(instance, cell_name) is not None)
            original(self, instance, cell_name)
            # The move's lean state, then the full one a report adds.
            assert_fresh_state(self._state, self.module, self.library)
            report = self.report()
            assert self._state.marr is not None
            assert_fresh_state(self._state, self.module, self.library)
            assert report == analyze(self.module, self.library, self.clock)
            assert self.critical_instances() == [
                step.instance for step in report.critical_path
            ]

        monkeypatch.setattr(ArrayTimingSession, "commit", commit)
        return adopted

    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC), nldm_library(), mixed_library(),
    ], ids=["linear", "nldm", "mixed"])
    def test_tilos_commits_equal_fresh_propagate(self, library,
                                                 checked_commits):
        from repro.sizing import size_for_speed

        module = staggered(
            register_boundaries(kogge_stone_adder(8, library), library),
            library,
        )
        result = size_for_speed(module, library, CLK, max_moves=12)
        assert result.moves == len(checked_commits) > 0
        assert all(checked_commits)

    def test_downsizing_commits_adopt_their_trial(self, checked_commits):
        from repro.sizing import downsize_off_critical

        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        for inst, cell in upsizing_moves(module, lib):
            module.replace_cell(inst, lib.drives_of(
                lib.get(cell).base_name)[-1].name)
        shrunk = downsize_off_critical(module, lib, asic_clock(3000.0))
        assert shrunk == len(checked_commits) > 0
        assert all(checked_commits)

    def test_commit_restages_columns_it_touches(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = inverter_chain(lib)
        session = ArrayTimingSession(module, lib, CLK)
        moves = [(name, "INV_X2") for name in "abcd"]
        session.trials(moves)
        assert set(session._staged) == set(moves)
        # b's swap touches b and a (a drives b's input): the columns of
        # a, b and c (c's touched set holds b) are stale, d's is not.
        session.commit("b", "INV_X2")
        assert set(session._staged) == {("d", "INV_X2")}
        later = [("a", "INV_X3"), ("c", "INV_X2"), ("d", "INV_X2")]
        periods = session.trials(later)
        fresh = ArrayTimingSession(module.clone(), lib, CLK)
        assert periods == fresh.trials(later)
        for move in later:
            (touched, got), (fresh_touched, want) = (
                s._staged[move] for s in (session, fresh))
            assert touched == fresh_touched, move
            assert dict(zip(*got)) == dict(zip(*want)), move

    def test_kind_change_drops_the_level_plan(self):
        lib = mixed_library()
        module = staggered(
            register_boundaries(kogge_stone_adder(8, lib), lib), lib
        )
        session = ArrayTimingSession(module, lib, CLK)
        compiled = session._compiled
        plans = compiled._level_plans()
        moves = upsizing_moves(module, lib)
        # X3 -> X4 stays a table arc; X2 -> X3 turns linear into a table.
        same_kind = next(m for m in moves if lib.get(m[1]).drive == 4.0)
        to_table = next(m for m in moves if lib.get(m[1]).drive == 3.0)
        session._swap(*same_kind)
        assert compiled._plans is plans
        session._swap(*to_table)
        assert compiled._plans is None
        state = compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(1))
        assert_fresh_state(state, module, lib)


def tied_design(outputs=("y1", "y2")):
    """Two equal-period port endpoints over two equal-arrival arcs.

    ``x`` fans out through identical inverters ``g1``/``g2`` to nets
    ``n1``/``n2`` (equal loads), and identical NAND2s ``g3``/``g4`` read
    both: ``g3`` lists pin A (from ``n1``) first, ``g4`` lists pin B
    (from ``n2``) first.  Only the first-max tie-breaks pick the path:
    the first declared output, then that gate's first-listed pin.
    """
    module = Module("ties")
    module.add_input("x")
    for name in outputs:
        module.add_output(name)
    module.add_instance("g1", "INV_X1", inputs={"A": "x"},
                        outputs={"Y": "n1"})
    module.add_instance("g2", "INV_X1", inputs={"A": "x"},
                        outputs={"Y": "n2"})
    module.add_instance("g3", "NAND2_X1", inputs={"A": "n1", "B": "n2"},
                        outputs={"Y": "y1"})
    module.add_instance("g4", "NAND2_X1", inputs={"B": "n2", "A": "n1"},
                        outputs={"Y": "y2"})
    return module


def path_instances(report):
    return [step.instance for step in report.critical_path]


class TestCriticalBacktrace:
    """The session's array backtrace is the report's critical path."""

    @pytest.mark.parametrize("outputs,expected", [
        (("y1", "y2"), ["g1", "g3"]),
        (("y2", "y1"), ["g2", "g4"]),
    ])
    def test_first_max_tie_breaks(self, outputs, expected):
        lib = rich_asic_library(CMOS250_ASIC)
        module = tied_design(outputs)
        report = analyze(module, lib, CLK)
        # The ties are real: both endpoints and both arcs into each NAND.
        assert report.endpoints[0].min_period_ps == \
            report.endpoints[1].min_period_ps
        session = ArrayTimingSession(module, lib, CLK)
        state = session.array_state()
        n1, n2 = (session._compiled._net_id(n) for n in ("n1", "n2"))
        assert state.arr[0, n1] == state.arr[0, n2]
        assert path_instances(report) == expected
        assert session.critical_instances() == expected
        assert TimingSession(module, lib, CLK).critical_instances() == \
            expected

    @pytest.mark.parametrize("library,clock", [
        (rich_asic_library(CMOS250_ASIC), asic_clock(2000.0)),
        (custom_library(CMOS250_CUSTOM), custom_clock(1000.0)),
    ], ids=["registered_alu", "custom_continuous"])
    def test_every_commit_matches_the_report(self, library, clock,
                                             monkeypatch):
        from repro.flows.asic import WORKLOADS
        from repro.sizing import size_for_speed

        checked = []
        original = ArrayTimingSession.commit

        def commit(self, instance, cell_name):
            original(self, instance, cell_name)
            critical = self.critical_instances()
            report = self.report()
            assert critical == path_instances(report)
            assert report == analyze(self.module, self.library, self.clock)
            checked.append(instance)

        monkeypatch.setattr(ArrayTimingSession, "commit", commit)
        module = register_boundaries(WORKLOADS["alu"](8, library), library)
        result = size_for_speed(module, library, clock, max_moves=15)
        assert result.moves == len(checked) > 0


#: Corrupts a propagated state's ``best`` into a loop (``n_a`` picks the
#: arc out of itself) and times each backtrace over it; the report's
#: trace, built from ``best``, inherits the loop.
LOOPED_BACKTRACES = """
import resource
import time

# A walk that loops while growing its path hits this cap, not the host.
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.cells import rich_asic_library
from repro.netlist import Module
from repro.par.session import ArrayTimingSession
from repro.sta import PathCycleError, asic_clock
from repro.sta.engine import _launch_of, _walk_path
from repro.tech import CMOS250_ASIC

module = Module("chain")
module.add_input("x")
module.add_output("y")
for name, a, y in (("a", "x", "n_a"), ("b", "n_a", "n_b"), ("c", "n_b", "y")):
    module.add_instance(name, "INV_X1", inputs={"A": a}, outputs={"Y": y})
session = ArrayTimingSession(module, rich_asic_library(CMOS250_ASIC),
                             asic_clock(10000.0))
state = session.array_state()
ct = session._compiled
state.best[0, ct._net_id("n_a")] = state.best[0, ct._net_id("n_b")]
arrival, _, _, trace, _ = state._as_dicts(0)
walks = {
    "path_instances": lambda: state.path_instances(ct._net_id("y")),
    "walk_path": lambda: _walk_path(module, trace, "y", arrival),
    "launch_of": lambda: _launch_of("y", trace, {}, module),
}
for name, walk in walks.items():
    started = time.perf_counter()
    try:
        walk()
    except PathCycleError:
        print(name, time.perf_counter() - started)
"""


def test_looped_backtraces_raise_instead_of_hanging():
    # A fresh interpreter under a timeout: an unbounded walk fails this
    # test instead of hanging the suite.
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LOOPED_BACKTRACES],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    seconds = dict(line.split() for line in proc.stdout.splitlines())
    assert sorted(seconds) == ["launch_of", "path_instances", "walk_path"]
    assert all(float(s) < 1.0 for s in seconds.values()), seconds


def _sizing_trace(style, **overrides):
    """Run one flow cold; return its committed moves, sizing result and
    flow JSON."""
    from repro.flows import cache as stage_cache
    from repro.flows.registry import get_backend, run_backend_flow
    from repro.robust import guards
    from repro.sizing import tilos

    commits, results = [], []

    def sized(*args, **kwargs):
        results.append(tilos.size_for_speed(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        for cls in (ArrayTimingSession, TimingSession):
            def commit(self, instance, cell_name, _original=cls.commit):
                commits.append((instance, cell_name))
                return _original(self, instance, cell_name)

            mp.setattr(cls, "commit", commit)
        mp.setattr(guards, "size_for_speed", sized)
        # Policy fields are not fingerprinted: a warm cache would replay
        # the previous run's size stage.
        stage_cache.reset()
        options = get_backend(style).options_cls(bits=4, sizing_moves=8,
                                                 **overrides)
        flow = run_backend_flow(style, options).to_dict()
    flow.pop("stages")
    (result,) = results
    return commits, result, flow


class TestBatchedSizingFlows:
    @pytest.mark.parametrize("style", ["asic", "structured", "custom"])
    def test_same_moves_and_report_as_object_session(self, style):
        moves, fast, flow_fast = _sizing_trace(style)
        oracle, slow, flow_slow = _sizing_trace(style, use_array=False)
        assert moves and moves == oracle
        assert fast.report == slow.report
        assert fast.final_period_ps == slow.final_period_ps
        assert flow_fast == flow_slow

    def test_check_array_verifies_every_commit(self, monkeypatch):
        verified = []
        original = ArrayTimingSession._verify_against_full

        def verify(self):
            verified.append(self.module.name)
            return original(self)

        monkeypatch.setattr(ArrayTimingSession, "_verify_against_full",
                            verify)
        moves, checked, _ = _sizing_trace("asic", check_array=True)
        plain_moves, plain, _ = _sizing_trace("asic")
        # Once at construction, then once per commit.
        assert len(verified) == 1 + len(moves)
        assert moves == plain_moves
        assert checked.report == plain.report


class TestFlowParity:
    def test_asic_flow_identical_with_and_without_array(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        fast = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=4))
        slow = run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=4, use_array=False)
        )
        assert fast.min_period_ps == slow.min_period_ps
        assert fast.typical_frequency_mhz == slow.typical_frequency_mhz
        assert fast.area_um2 == slow.area_um2

    def test_flow_check_array_passes(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        checked = run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=4, check_array=True)
        )
        plain = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=4))
        assert checked.min_period_ps == plain.min_period_ps

    def test_fingerprint_ignores_array_policy(self):
        from repro.flows import AsicFlowOptions
        from repro.flows.options import options_fingerprint

        assert options_fingerprint(AsicFlowOptions()) == \
            options_fingerprint(
                AsicFlowOptions(use_array=False, check_array=True)
            )


class TestCheckMode:
    def test_tampered_report_trips_check(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        report = analyze(module, lib, CLK)
        tampered = dataclasses.replace(
            report, min_period_ps=report.min_period_ps + 1.0
        )
        with pytest.raises(ArrayCheckError):
            assert_reports_match(tampered, report)

    def test_sub_tolerance_drift_is_accepted(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        report = analyze(module, lib, CLK)
        nudged = dataclasses.replace(
            report, min_period_ps=report.min_period_ps + 1e-10
        )
        assert_reports_match(nudged, report)


class TestBugfixRegressions:
    def test_instance_load_sums_all_output_nets(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        graph = TimingGraph(module, lib)
        assert graph.instance_load_ff("g0") == (
            graph.net_load_ff("y1") + graph.net_load_ff("y2")
        )

    def test_gate_delay_stats_uses_summed_load(self):
        # Was: only the first output net's load, so the statistical
        # model disagreed with the deterministic engine on fanout-split
        # instances.
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        graph = TimingGraph(module, lib)
        stats = _gate_delay_stats(graph, module, 0.05)
        load = graph.instance_load_ff("g0")
        cell = graph.cell_of("g0")
        for pin in ("A", "B"):
            assert stats[("g0", pin)][0] == cell.delay_ps(pin, load, 20.0)
