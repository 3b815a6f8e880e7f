"""Timing session tests: the object oracle and the degraded array session.

:class:`TimingSession` re-runs ``analyze()`` on every trial and commit,
so after any sequence of sizing moves its reports must equal a fresh
analysis of the mutated netlist, and a trial must leave the netlist as
it found it -- also when the move raises.  An :class:`ArrayTimingSession`
that cannot compile a design hands every call to that oracle.
"""

import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cells import rich_asic_library
from repro.cells.delay import LinearDelayArc
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.par import TimingSession
from repro.par.session import ArrayTimingSession
from repro.robust.faults import FaultInjector
from repro.robust.guards import disable_guard, enable_all_guards
from repro.sta import TimingError, analyze, asic_clock, register_boundaries
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC

CLK = asic_clock(20000.0)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def fresh_library():
    """A private library instance -- these tests mutate cells in place."""
    return rich_asic_library(CMOS250_ASIC)


def mapped(text, library, drive=1.0):
    return map_design({"y": parse_expression(text)}, library,
                      default_drive=drive)


def resizable_moves(module, library):
    """All legal (instance, variant_cell_name) swaps in a module."""
    moves = []
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            continue
        for variant in library.drives_of(cell.base_name):
            if variant.name != inst.cell_name:
                moves.append((inst.name, variant.name))
    return moves


def cell_names(module):
    return {inst.name: inst.cell_name for inst in module.iter_instances()}


def same(a, b):
    """Equality that counts NaN equal to NaN (``repr`` spells it out)."""
    return repr(a) == repr(b)


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_move_sequence_matches_full(self, seed):
        library = fresh_library()
        module = mapped("(a & b & c & d) | (e & f & g & h)", library)
        session = TimingSession(module, library, CLK)
        rng = random.Random(seed)
        for _ in range(12):
            instance, cell_name = rng.choice(resizable_moves(module, library))
            session.commit(instance, cell_name)
            report = session.report()
            assert report == analyze(module, library, CLK)
            assert session.min_period_ps() == report.min_period_ps
            assert session.critical_instances() == [
                step.instance for step in report.critical_path
            ]

    @pytest.mark.parametrize("generator,bits", [
        (ripple_carry_adder, 4),
        (kogge_stone_adder, 4),
    ])
    def test_datapath_designs_match_full(self, generator, bits):
        library = fresh_library()
        module = generator(bits, library)
        session = TimingSession(module, library, CLK)
        rng = random.Random(99)
        for _ in range(6):
            instance, cell_name = rng.choice(
                resizable_moves(module, library)
            )
            session.commit(instance, cell_name)
        assert session.report() == analyze(module, library, CLK)

    def test_registered_design_matches_full(self):
        library = fresh_library()
        comb = mapped("(a & b) | (c & d)", library)
        module = register_boundaries(comb, library)
        session = TimingSession(module, library, CLK)
        for instance, cell_name in resizable_moves(module, library)[:4]:
            session.commit(instance, cell_name)
        assert session.report() == analyze(module, library, CLK)


class TestTrials:
    def test_trial_restores_state(self):
        library = fresh_library()
        module = mapped("(a & b) | (c & d)", library)
        session = TimingSession(module, library, CLK)
        before = session.report()
        cells_before = cell_names(module)
        changing = [
            (inst, cell) for inst, cell in resizable_moves(module, library)
            if session.trial(inst, cell) != before.min_period_ps
        ]
        assert changing  # at least one move affects the critical path
        assert session.report() == before
        assert cell_names(module) == cells_before
        assert analyze(module, library, CLK) == before

    def test_trial_matches_commit(self):
        library = fresh_library()
        module = mapped("(a & b) | (c & d)", library)
        session = TimingSession(module, library, CLK)
        instance, cell_name = resizable_moves(module, library)[0]
        trial_period = session.trial(instance, cell_name)
        session.commit(instance, cell_name)
        assert session.report().min_period_ps == trial_period

    def test_noop_commit_keeps_state(self):
        library = fresh_library()
        module = mapped("a & b", library)
        session = TimingSession(module, library, CLK)
        before = session.report()
        inst = next(module.iter_instances())
        assert session.trial(inst.name, inst.cell_name) == \
            before.min_period_ps
        session.commit(inst.name, inst.cell_name)
        assert session.report() is before

    def test_sequential_resize_rejected(self):
        library = fresh_library()
        comb = mapped("a & b", library)
        module = register_boundaries(comb, library)
        dff = next(
            inst.name for inst in module.iter_instances()
            if library.get(inst.cell_name).is_sequential
        )
        session = TimingSession(module, library, CLK)
        comb = next(c.name for c in library if not c.is_sequential)
        cells_before = cell_names(module)
        with pytest.raises(TimingError, match="sequential"):
            session.trial(dff, comb)
        with pytest.raises(TimingError, match="sequential"):
            session.commit(dff, comb)
        assert cell_names(module) == cells_before

    def test_bad_derate_rejected(self):
        library = fresh_library()
        module = mapped("a & b", library)
        with pytest.raises(TimingError, match="derate"):
            TimingSession(module, library, CLK, delay_derate=math.inf)


class TestFiniteGuard:
    def test_injected_nan_fails_session_construction(self):
        library = fresh_library()
        module = mapped("(a & b & c) | (d & e)", library)
        FaultInjector(seed=3).inject_nan(library, module)
        with pytest.raises(TimingError, match="[Nn]on-finite"):
            TimingSession(module, library, CLK)

    def test_nan_arc_fires_guard_on_trial(self):
        """Poison an arc *after* construction: the next trial must raise
        and leave the netlist and the session's report as they were."""
        library = fresh_library()
        module = mapped("(a & b & c) | (d & e)", library)
        session = TimingSession(module, library, CLK)
        before = session.report()
        cells_before = cell_names(module)
        mover, stronger = resizable_moves(module, library)[0]
        victim = next(
            inst for inst in module.iter_instances() if inst.name != mover
        )
        victim_cell = library.get(victim.cell_name)
        pin = sorted(victim_cell.arcs)[0]
        saved_arc = victim_cell.arcs[pin]
        victim_cell.arcs[pin] = LinearDelayArc(
            parasitic_ps=float("nan"), effort_ps_per_ff=1.0
        )
        try:
            with pytest.raises(TimingError, match="[Nn]on-finite"):
                session.trial(mover, stronger)
        finally:
            victim_cell.arcs[pin] = saved_arc
        assert cell_names(module) == cells_before
        assert session.report() == before
        assert analyze(module, library, CLK) == before


class TestDegradedArraySession:
    """With the finite guard off, a NaN arc makes the array compile give
    up; every answer then comes from the oracle, NaN shadowing and all."""

    def test_answers_equal_analyze(self):
        library = fresh_library()
        module = register_boundaries(ripple_carry_adder(4, library),
                                     library)
        FaultInjector(seed=3).inject_nan(library, module)
        moves = resizable_moves(module, library)[::5]
        disable_guard("finite")
        obs.enable()
        try:
            session = ArrayTimingSession(module, library, CLK)
            assert obs.get_metrics().counter(
                "sta.array.fallbacks"
            ).value() == 1
            assert same(session.report(), analyze(module, library, CLK))

            expected = []
            for instance, cell_name in moves:
                old = module.instance(instance).cell_name
                module.replace_cell(instance, cell_name)
                expected.append(
                    analyze(module, library, CLK).min_period_ps
                )
                module.replace_cell(instance, old)
            singles = [session.trial(i, c) for i, c in moves]
            assert np.array_equal(singles, expected, equal_nan=True)
            assert np.array_equal(session.trials(moves), expected,
                                  equal_nan=True)

            for instance, cell_name in moves[:3]:
                session.commit(instance, cell_name)
                report = session.report()
                assert same(report, analyze(module, library, CLK))
                assert same(session.min_period_ps(), report.min_period_ps)
                assert session.critical_instances() == [
                    step.instance for step in report.critical_path
                ]
        finally:
            obs.disable()
            obs.reset()
            enable_all_guards()


def test_perfbench_span_targets_resolve():
    """Every layer ``perfbench --trace 1`` wraps still exists in ``src/``,
    with methods defined on the class itself (not inherited)."""
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for name, target in layers.SPAN_TARGETS.items():
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if classes:
            assert attr in owner.__dict__, name
        assert callable(getattr(owner, attr)), name


def test_perfbench_reset_caches_runs():
    """The benchmark's ``reset_caches`` still runs against ``src/``: it
    imports ``repro.par.memo`` and calls its ``reset()``."""
    from repro.flows import cache as stage_cache

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stage_cache.get_cache().get("no-such-fingerprint")
    assert stage_cache.stats()["misses"] >= 1
    workloads.reset_caches()
    assert stage_cache.stats()["misses"] == 0


def test_memo_module_keeps_only_reset():
    """``repro.par.memo`` is a no-op ``reset()`` and nothing else: no
    process-wide switch, cache bound or counter survives."""
    from repro.par import memo

    public = {name for name in vars(memo) if not name.startswith("_")}
    assert public == {"reset"}
    assert memo.reset() is None
