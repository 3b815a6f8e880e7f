"""Unit tests for TILOS sizing, discretisation, buffering and wire sizing."""

import pytest

from repro.cells import custom_library, poor_asic_library, rich_asic_library
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.netlist import Module
from repro.sizing import (
    SizingError,
    buffer_high_fanout,
    discretization_penalty,
    downsize_off_critical,
    size_for_speed,
    size_wires,
    snap_to_library,
    total_area_um2,
)
from repro.sta import analyze, asic_clock
from repro.synth import exhaustive_equivalent, map_design, parse_expression
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM

RICH = rich_asic_library(CMOS250_ASIC)
CLK = asic_clock(20000.0)


def mapped(text, library=None, drive=1.0):
    lib = library or RICH
    return map_design({"y": parse_expression(text)}, lib, default_drive=drive)


class TestTilos:
    def test_sizing_improves_speed(self):
        # Map at minimum drive so there is headroom to recover.
        module = mapped("(a & b & c & d) | (e & f & g & h)", drive=1.0)
        result = size_for_speed(module, RICH, CLK, max_moves=40)
        assert result.final_period_ps < result.initial_period_ps
        assert result.speedup > 1.02
        assert result.moves > 0

    def test_sizing_grows_area(self):
        module = mapped("(a & b & c & d) | (e & f & g & h)", drive=1.0)
        before = total_area_um2(module, RICH)
        size_for_speed(module, RICH, CLK, max_moves=40)
        assert total_area_um2(module, RICH) >= before

    def test_sizing_preserves_function(self):
        text = "(a & b) | (~c & d)"
        module = mapped(text, drive=1.0)
        reference = mapped(text, drive=1.0)
        size_for_speed(module, RICH, CLK, max_moves=20)
        assert exhaustive_equivalent(module, RICH, reference, RICH)

    def test_target_period_stops_early(self):
        module = mapped("(a & b & c & d) | (e & f & g & h)", drive=1.0)
        loose = analyze(module, RICH, CLK).min_period_ps * 0.99
        result = size_for_speed(module, RICH, CLK, target_period_ps=loose)
        assert result.moves <= 3

    def test_continuous_sizing_beats_discrete(self):
        text = "(a & b & c & d) | (e & f & g & h)"
        custom = custom_library(CMOS250_CUSTOM)
        disc = mapped(text, RICH, drive=1.0)
        cont = map_design({"y": parse_expression(text)}, custom, default_drive=1.0)
        r_disc = size_for_speed(disc, RICH, CLK, max_moves=60)
        r_cont = size_for_speed(cont, custom, CLK, max_moves=60)
        # The custom library is faster per-FO4 anyway; compare speedup
        # headroom instead of absolute periods.
        assert r_cont.speedup >= r_disc.speedup * 0.8  # both converge

    def test_budget_validation(self):
        module = mapped("a & b")
        with pytest.raises(SizingError):
            size_for_speed(module, RICH, CLK, max_moves=-1)
        with pytest.raises(SizingError):
            size_for_speed(module, RICH, CLK, area_limit=0.5)

    def test_downsize_keeps_period(self):
        module = mapped("(a & b & c) | d", drive=8.0)
        base = analyze(module, RICH, CLK).min_period_ps
        shrunk = downsize_off_critical(module, RICH, CLK)
        after = analyze(module, RICH, CLK).min_period_ps
        assert shrunk > 0
        assert after <= base + 1e-6

    @pytest.mark.parametrize("text,drive", [
        ("(a & b & c) | d", 8.0),
        ("(a & b & c & d) | (e & f & g & h)", 4.0),
    ])
    def test_downsize_matches_object_session(self, monkeypatch, text,
                                             drive):
        from repro.par.session import TimingSession
        from repro.sizing import tilos

        fast = mapped(text, drive=drive)
        shrunk = downsize_off_critical(fast, RICH, CLK)
        slow = mapped(text, drive=drive)
        monkeypatch.setattr(tilos, "ArrayTimingSession", TimingSession)
        assert downsize_off_critical(slow, RICH, CLK) == shrunk
        assert {n: i.cell_name for n, i in fast.instances.items()} == {
            n: i.cell_name for n, i in slow.instances.items()
        }
        assert analyze(fast, RICH, CLK) == analyze(slow, RICH, CLK)

    def test_downsize_saves_area(self):
        module = mapped("(a & b & c) | d", drive=8.0)
        before = total_area_um2(module, RICH)
        downsize_off_critical(module, RICH, CLK)
        assert total_area_um2(module, RICH) < before


class TestDiscretization:
    def test_penalty_positive_and_small_for_rich(self):
        custom = custom_library(CMOS250_CUSTOM)
        module = map_design(
            {"y": parse_expression("(a & b & c & d) | (e & f)")}, custom
        )
        size_for_speed(module, custom, CLK, max_moves=40)
        rich_custom_tech = rich_asic_library(CMOS250_CUSTOM)
        penalty = discretization_penalty(module, custom, rich_custom_tech, CLK)
        # Section 6.1: 2-7% or less for a rich library; guard banding in
        # our rich ASIC library adds a few percent on top.
        assert -0.02 <= penalty.penalty_fraction < 0.20

    def test_snap_preserves_function(self):
        custom = custom_library(CMOS250_CUSTOM)
        text = "(a & b) ^ (c | d)"
        module = map_design({"y": parse_expression(text)}, custom)
        rich_custom = rich_asic_library(CMOS250_CUSTOM)
        snapped = snap_to_library(module, custom, rich_custom)
        assert exhaustive_equivalent(module, custom, snapped, rich_custom)

    def test_snap_missing_base_raises(self):
        custom = custom_library(CMOS250_CUSTOM)
        module = map_design({"y": parse_expression("a & b")}, custom)
        poor = poor_asic_library(CMOS250_CUSTOM)
        # Continuous mapping chose AND2 which the poor library lacks.
        with pytest.raises(SizingError, match="lacks"):
            snap_to_library(module, custom, poor)


class TestBuffering:
    def _fanout_module(self, fanout=20):
        m = Module("fan")
        m.add_input("a")
        m.add_instance("drv", "INV_X1", inputs={"A": "a"}, outputs={"Y": "w"})
        for i in range(fanout):
            m.add_output(f"y{i}")
            m.add_instance(
                f"g{i}", "INV_X1", inputs={"A": "w"}, outputs={"Y": f"y{i}"}
            )
        return m

    def test_buffering_relieves_fanout(self):
        m = self._fanout_module()
        result = buffer_high_fanout(m, RICH, max_fanout=8)
        assert result.nets_split >= 1
        assert result.buffers_added >= 3
        m.assert_well_formed()
        assert len([s for s in m.sinks_of("w")]) <= 8

    def test_buffering_improves_timing(self):
        m1 = self._fanout_module(32)
        m2 = self._fanout_module(32)
        buffer_high_fanout(m2, RICH, max_fanout=8)
        r1 = analyze(m1, RICH, CLK)
        r2 = analyze(m2, RICH, CLK)
        assert r2.min_period_ps < r1.min_period_ps

    def test_no_buffer_cell_raises(self):
        poor = poor_asic_library(CMOS250_ASIC)
        m = self._fanout_module(4)
        with pytest.raises(SizingError, match="BUF"):
            buffer_high_fanout(m, poor)


class TestWireSizing:
    def test_wire_sizing_saves_delay_on_spread_design(self):
        from repro.physical import place

        adder = ripple_carry_adder(16, RICH)
        placement = place(adder, RICH, quality="sloppy", seed=3)
        result = size_wires(placement, CMOS250_ASIC, min_length_um=50.0)
        assert result.total_delay_saved_ps >= 0.0
        assert all(w >= 1.0 for w in result.widths.values())

    def test_short_nets_stay_minimum(self):
        from repro.physical import place

        adder = kogge_stone_adder(4, RICH)
        placement = place(adder, RICH, quality="careful", seed=3)
        result = size_wires(placement, CMOS250_ASIC, min_length_um=1e6)
        assert all(w == 1.0 for w in result.widths.values())
        assert result.area_increase_um2 == 0.0

    def test_menu_validation(self):
        from repro.physical import place

        adder = kogge_stone_adder(4, RICH)
        placement = place(adder, RICH, seed=1)
        with pytest.raises(SizingError):
            size_wires(placement, CMOS250_ASIC, width_menu=(0.5,))
