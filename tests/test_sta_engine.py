"""Unit tests for the STA engine, FO4 metrics and sequential wrapping."""

import pytest

from repro.cells import custom_library, rich_asic_library
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.netlist import Module
from repro.sta import (
    TimingError,
    WireParasitics,
    analyze,
    asic_clock,
    custom_clock,
    fo4_depth,
    fo4_logic_depth,
    format_comparison,
    format_report,
    register_boundaries,
    sequential_overhead_ps,
)
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM

RICH = rich_asic_library(CMOS250_ASIC)
CUSTOM = custom_library(CMOS250_CUSTOM)
CLK = asic_clock(10000.0)


def inv_chain(library, n, drive_suffix="X2"):
    m = Module(f"chain{n}")
    prev = m.add_input("a")
    for i in range(n):
        out = f"w{i}"
        m.add_instance(f"i{i}", f"INV_{drive_suffix}", inputs={"A": prev},
                       outputs={"Y": out})
        prev = out
    m.add_output("y")
    m.add_instance("last", f"INV_{drive_suffix}", inputs={"A": prev},
                   outputs={"Y": "y"})
    return m


class TestCombinationalAnalysis:
    def test_longer_chain_longer_delay(self):
        r4 = analyze(inv_chain(RICH, 4), RICH, CLK)
        r8 = analyze(inv_chain(RICH, 8), RICH, CLK)
        assert r8.min_period_ps > r4.min_period_ps

    def test_critical_path_traced(self):
        report = analyze(inv_chain(RICH, 4), RICH, CLK)
        assert len(report.critical_path) == 5
        arrivals = [s.arrival_ps for s in report.critical_path]
        assert arrivals == sorted(arrivals)
        assert report.critical.kind == "port"

    def test_wire_parasitics_slow_the_path(self):
        m = inv_chain(RICH, 4)
        base = analyze(m, RICH, CLK)
        wire = WireParasitics(
            extra_cap_ff={"w1": 50.0}, extra_delay_ps={"w2": 200.0}
        )
        loaded = analyze(m, RICH, CLK, wire=wire)
        assert loaded.min_period_ps > base.min_period_ps + 150.0

    def test_parallel_paths_max_wins(self):
        m = Module("par")
        m.add_input("a")
        m.add_output("y")
        # Slow branch: 3 inverters; fast branch: 1 inverter; NAND joins.
        m.add_instance("s1", "INV_X2", inputs={"A": "a"}, outputs={"Y": "w1"})
        m.add_instance("s2", "INV_X2", inputs={"A": "w1"}, outputs={"Y": "w2"})
        m.add_instance("s3", "INV_X2", inputs={"A": "w2"}, outputs={"Y": "w3"})
        m.add_instance("f1", "INV_X2", inputs={"A": "a"}, outputs={"Y": "w4"})
        m.add_instance(
            "join", "NAND2_X2", inputs={"A": "w3", "B": "w4"}, outputs={"Y": "y"}
        )
        report = analyze(m, RICH, CLK)
        path_instances = [s.instance for s in report.critical_path]
        assert "s3" in path_instances
        assert "f1" not in path_instances

    def test_undriven_input_raises(self):
        m = Module("bad")
        m.add_output("y")
        m.add_instance("g", "INV_X2", inputs={"A": "floating"}, outputs={"Y": "y"})
        with pytest.raises(TimingError):
            analyze(m, RICH, CLK)

    def test_no_endpoints_raises(self):
        m = Module("empty")
        m.add_input("a")
        with pytest.raises(TimingError, match="no timing endpoints"):
            analyze(m, RICH, CLK)

    def test_slack_and_meets(self):
        report = analyze(inv_chain(RICH, 4), RICH, CLK)
        assert report.meets()  # 10 ns is generous
        tight = report.min_period_ps * 0.5
        assert not report.meets(tight)
        assert report.worst_slack_ps(tight) < 0


class _RecordingArc:
    """Arc proxy that logs each query and can scale its delay."""

    def __init__(self, arc, log, delay_scale=1.0):
        self.arc = arc
        self.log = log
        self.delay_scale = delay_scale

    def delay_ps(self, load_ff, slew_ps):
        self.log.append(("delay", load_ff, slew_ps))
        return self.arc.delay_ps(load_ff, slew_ps) * self.delay_scale

    def output_slew_ps(self, load_ff, slew_ps):
        self.log.append(("slew", load_ff, slew_ps))
        return self.arc.output_slew_ps(load_ff, slew_ps)


def _wrap_arcs(library, module, log, delay_scale=1.0):
    for cell_name in {inst.cell_name for inst in module.instances.values()}:
        arcs = library.get(cell_name).arcs
        for pin, arc in list(arcs.items()):
            arcs[pin] = _RecordingArc(arc, log, delay_scale)


class TestArcQueries:
    """The engine asks each arc directly; nothing is cached between runs."""

    def test_delay_then_slew_at_the_same_point(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = ripple_carry_adder(4, lib)
        expected = analyze(module, lib, CLK)
        log = []
        _wrap_arcs(lib, module, log)
        assert analyze(module, lib, CLK) == expected
        assert log and len(log) % 2 == 0
        for first, second in zip(log[::2], log[1::2]):
            assert first[0] == "delay" and second[0] == "slew"
            assert first[1:] == second[1:]

    def test_repeated_analysis_requeries_every_arc(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = ripple_carry_adder(4, lib)
        log = []
        _wrap_arcs(lib, module, log)
        analyze(module, lib, CLK)
        first = list(log)
        log.clear()
        analyze(module, lib, CLK)
        assert log == first

    def test_arc_replaced_in_place_is_seen_by_the_next_analysis(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = ripple_carry_adder(4, lib)
        before = analyze(module, lib, CLK)
        _wrap_arcs(lib, module, [], delay_scale=2.0)
        after = analyze(module, lib, CLK)
        fresh = rich_asic_library(CMOS250_ASIC)
        _wrap_arcs(fresh, module, [], delay_scale=2.0)
        assert after == analyze(module, fresh, CLK)
        assert after.min_period_ps > before.min_period_ps


class TestSequentialAnalysis:
    def _registered_chain(self, n=6, library=RICH):
        comb = inv_chain(library, n)
        return register_boundaries(comb, library)

    def test_registered_paths_include_overheads(self):
        wrapped = self._registered_chain()
        report = analyze(wrapped, RICH, CLK)
        assert report.critical.kind == "register"
        assert report.critical.launch_overhead_ps > 0
        assert report.critical.capture_overhead_ps > 0
        assert report.critical.skew_ps == pytest.approx(CLK.skew_ps)

    def test_min_period_decomposition(self):
        wrapped = self._registered_chain()
        report = analyze(wrapped, RICH, CLK)
        crit = report.critical
        assert report.min_period_ps == pytest.approx(
            crit.data_arrival_ps + crit.capture_overhead_ps + crit.skew_ps
            - crit.borrow_ps
        )

    def test_overhead_fraction_reasonable(self):
        from repro.sta.engine import solve_min_period

        wrapped = self._registered_chain(4)
        # Solve self-consistently so the 10% skew is 10% of the achieved
        # period, not of the loose analysis clock.
        report = solve_min_period(wrapped, RICH, CLK)
        # Short pipeline stage: overhead is a large slice (Section 4: ~30%).
        assert 0.25 < report.overhead_fraction() < 0.75

    def test_solve_min_period_fixed_point(self):
        from repro.sta.engine import solve_min_period

        wrapped = self._registered_chain(8)
        report = solve_min_period(wrapped, RICH, CLK)
        # At the fixed point, the clock's period equals the min period and
        # the charged skew is 10% of it.
        assert report.clock.period_ps == pytest.approx(
            report.min_period_ps, abs=1.0
        )
        assert report.critical.skew_ps == pytest.approx(
            0.10 * report.min_period_ps, rel=0.02
        )

    def test_latch_borrowing_reduces_period(self):
        comb = inv_chain(RICH, 6)
        flops = register_boundaries(comb, RICH, use_latches=False)
        latches = register_boundaries(comb, RICH, use_latches=True)
        clk = custom_clock(10000.0)
        r_flop = analyze(flops, RICH, clk)
        r_latch = analyze(latches, RICH, clk)
        assert r_latch.min_period_ps < r_flop.min_period_ps

    def test_hold_checked(self):
        # A direct flop-to-flop connection is a canonical hold risk.
        m = Module("h")
        m.add_input("clk")
        m.add_input("d")
        m.add_output("q")
        ff = RICH.flip_flop().name
        m.add_instance("f1", ff, inputs={"D": "d", "CK": "clk"},
                       outputs={"Q": "m"})
        m.add_instance("f2", ff, inputs={"D": "m", "CK": "clk"},
                       outputs={"Q": "q"})
        report = analyze(m, RICH, asic_clock(5000.0))
        # With 10% skew at 5 ns (500 ps) and small clk->Q, hold must fail.
        assert report.hold_violations
        assert report.hold_violations[0].slack_ps < 0

    def test_register_boundaries_rejects_sequential_input(self):
        m = Module("seqin")
        m.add_input("clk")
        m.add_input("d")
        m.add_output("q")
        m.add_instance(
            "ff", RICH.flip_flop().name,
            inputs={"D": "d", "CK": "clk"}, outputs={"Q": "q"},
        )
        with pytest.raises(TimingError, match="already contains"):
            register_boundaries(m, RICH)

    def test_sequential_overhead_helper(self):
        assert sequential_overhead_ps(RICH) > sequential_overhead_ps(
            RICH, use_latches=True
        )


class TestFO4AndReports:
    def test_fo4_depth_of_registered_adder(self):
        adder = ripple_carry_adder(8, RICH)
        wrapped = register_boundaries(adder, RICH)
        report = analyze(wrapped, RICH, CLK)
        depth = fo4_depth(report, CMOS250_ASIC)
        logic = fo4_logic_depth(report, CMOS250_ASIC)
        assert depth > logic > 3
        assert depth == pytest.approx(
            report.min_period_ps / CMOS250_ASIC.fo4_delay_ps
        )

    def test_fast_adder_fewer_fo4(self):
        slow = register_boundaries(ripple_carry_adder(16, RICH), RICH)
        fast = register_boundaries(kogge_stone_adder(16, RICH), RICH)
        r_slow = analyze(slow, RICH, CLK)
        r_fast = analyze(fast, RICH, CLK)
        assert fo4_depth(r_fast, CMOS250_ASIC) < fo4_depth(r_slow, CMOS250_ASIC)

    def test_format_report_smoke(self):
        report = analyze(self_registered(), RICH, CLK)
        text = format_report(report, CMOS250_ASIC)
        assert "min period" in text
        assert "critical path" in text
        assert "FO4" in text

    def test_format_comparison_smoke(self):
        r1 = analyze(inv_chain(RICH, 2), RICH, CLK)
        r2 = analyze(inv_chain(RICH, 6), RICH, CLK)
        text = format_comparison([("short", r1), ("long", r2)], CMOS250_ASIC)
        assert "short" in text and "long" in text


def self_registered():
    return register_boundaries(inv_chain(RICH, 5), RICH)
