"""Unit tests for repro.cells.library and repro.cells.builder."""

import pytest

from repro.cells import (
    CellError,
    CellKind,
    LogicFamily,
    STATIC_TEMPLATES,
    build_library,
    custom_library,
    domino_library,
    make_combinational_cell,
    poor_asic_library,
    rich_asic_library,
)
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM


@pytest.fixture(scope="module")
def rich():
    return rich_asic_library(CMOS250_ASIC)


@pytest.fixture(scope="module")
def poor():
    return poor_asic_library(CMOS250_ASIC)


@pytest.fixture(scope="module")
def custom():
    return custom_library(CMOS250_CUSTOM)


@pytest.fixture(scope="module")
def domino():
    return domino_library(CMOS250_CUSTOM)


class TestBuilder:
    def test_rich_has_many_drives(self, rich):
        assert rich.drive_count("NAND2") == 8
        assert rich.mean_drives_per_base() >= 6

    def test_poor_has_two_drives(self, poor):
        assert poor.drive_count("NAND2") == 2
        assert not poor.has_base("AND2")
        assert not poor.has_base("AOI21")

    def test_rich_dual_polarity(self, rich, poor):
        assert rich.has_dual_polarity("NAND2")
        assert rich.has_dual_polarity("OR3")
        assert not poor.has_dual_polarity("NAND2")

    def test_inverter_fo4_calibration(self, rich):
        # An inverter driving 4x its own input cap should take about one
        # FO4 (the guard band makes the ASIC library slightly slower).
        inv = rich.inverter()
        load = 4.0 * inv.input_cap_ff("A")
        delay = inv.delay_ps("A", load)
        fo4 = CMOS250_ASIC.fo4_delay_ps
        assert fo4 <= delay <= 1.15 * fo4

    def test_larger_drive_is_faster_at_fixed_load(self, rich):
        small = rich.get("NAND2_X1")
        big = rich.get("NAND2_X8")
        assert big.delay_ps("A", 20.0) < small.delay_ps("A", 20.0)
        assert big.input_cap_ff("A") > small.input_cap_ff("A")

    def test_cell_functions_evaluate(self, rich):
        nand3 = rich.get("NAND3_X1")
        assert nand3.evaluate({"A": True, "B": True, "C": True}) is False
        assert nand3.evaluate({"A": True, "B": False, "C": True}) is True
        mux = rich.get("MUX2_X1")
        assert mux.evaluate({"A": True, "B": False, "S": False}) is True
        assert mux.evaluate({"A": True, "B": False, "S": True}) is False

    def test_sequential_cells_present(self, rich):
        ff = rich.flip_flop()
        assert ff.kind is CellKind.FLIP_FLOP
        latch = rich.latch()
        assert latch.sequential.transparent

    def test_asic_flop_slower_than_custom(self, rich, custom):
        # Same drawn geometry class; ASIC flop overhead must exceed custom.
        asic_ovh = rich.flip_flop().sequential.overhead_ps
        custom_ovh = custom.flip_flop().sequential.overhead_ps
        # Normalise out the different FO4s to compare per-FO4 overheads.
        asic_fo4 = asic_ovh / CMOS250_ASIC.fo4_delay_ps
        custom_fo4 = custom_ovh / CMOS250_CUSTOM.fo4_delay_ps
        assert asic_fo4 > custom_fo4

    def test_nldm_option(self):
        lib = rich_asic_library(CMOS250_ASIC, use_nldm=True)
        cell = lib.get("NAND2_X2")
        delay = cell.delay_ps("A", 5.0, 10.0)
        assert delay > 0

    def test_unknown_template_rejected(self):
        from repro.cells import LibrarySpec

        with pytest.raises(CellError, match="no template"):
            build_library(
                CMOS250_ASIC, LibrarySpec(name="x", bases=("NAND17",))
            )

    def test_guard_band_slows_cells(self):
        template = STATIC_TEMPLATES["INV"]
        plain = make_combinational_cell(CMOS250_ASIC, template, 1.0)
        banded = make_combinational_cell(
            CMOS250_ASIC, template, 1.0, guard_band=1.2
        )
        assert banded.delay_ps("A", 5.0) > plain.delay_ps("A", 5.0)


class TestDomino:
    def test_domino_cells_non_inverting(self, domino):
        for cell in domino:
            if cell.kind is CellKind.COMBINATIONAL:
                assert not cell.inverting
                assert cell.family is LogicFamily.DOMINO

    def test_domino_faster_than_static_chain(self, rich, domino):
        # Section 7.1: 50-100% faster for the same function.  Compare a
        # self-loaded AND2 stage (fanout-of-1 chain step).
        static_and = rich.get("AND2_X4")
        domino_and = domino.get("DAND2_X4")
        d_static = static_and.delay_ps("A", static_and.input_cap_ff("A"))
        d_domino = domino_and.delay_ps("A", domino_and.input_cap_ff("A"))
        ratio = d_static / d_domino
        assert 1.5 <= ratio <= 3.5

    def test_wide_or_available(self, domino):
        or8 = domino.get("DOR8_X1")
        assert or8.num_inputs == 8


class TestLibraryQueries:
    def test_get_unknown_mentions_similar(self, rich):
        with pytest.raises(CellError, match="NAND2"):
            rich.get("NAND2_X99")

    def test_drives_sorted(self, rich):
        drives = [c.drive for c in rich.drives_of("INV")]
        assert drives == sorted(drives)

    def test_select_drive_scales_with_load(self, rich):
        light = rich.select_drive("INV", 2.0)
        heavy = rich.select_drive("INV", 150.0)
        assert heavy.drive > light.drive

    def test_select_drive_continuous(self, custom):
        cell = custom.select_drive("INV", 37.0)
        # Continuous sizing: input cap tracks load / 4 exactly.
        assert cell.input_cap_ff("A") == pytest.approx(37.0 / 4.0, rel=0.01)

    def test_continuous_cell_is_named_before_it_is_built(self, monkeypatch):
        custom = custom_library(CMOS250_CUSTOM)
        factory = custom.continuous_factory
        bases = [b for b in custom.bases()
                 if not custom.drives_of(b)[0].is_sequential]
        for base in bases:
            for drive in (0.3, 1.4, 2.744, 13.0):
                assert factory.name(base, drive) == factory(base, drive).name
        first = custom.continuous_cell("INV", 2.744)
        count = len(custom)
        built = []
        monkeypatch.setattr(type(factory), "__call__",
                            lambda self, *args: built.append(args))
        # A known name is looked up, not built again.
        assert custom.continuous_cell("INV", 2.744) is first
        assert custom.select_drive("INV", 4.0 * 2.744 * custom.technology
                                   .unit_input_cap_ff) is first
        assert built == [] and len(custom) == count

    def test_select_drive_rejects_negative_load(self, rich):
        with pytest.raises(CellError):
            rich.select_drive("INV", -1.0)

    def test_sequential_names_and_output_pins(self, rich):
        seq = rich.sequential_cell_names()
        assert any(n.startswith("DFF") for n in seq)
        pin_map = rich.output_pin_map()
        assert pin_map["NAND2_X1"] == {"Y"}
        assert pin_map[rich.flip_flop().name] == {"Q"}

    def test_summary_mentions_name(self, rich):
        assert "asic_rich" in rich.summary()

    def test_duplicate_cell_rejected(self, rich):
        cell = rich.get("INV_X1")
        with pytest.raises(CellError):
            rich.add(cell)
