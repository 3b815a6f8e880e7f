"""Unit tests for floorplanning, placement, routing and clock trees."""

import random

import pytest

from repro.cells import rich_asic_library
from repro.datapath import kogge_stone_adder
from repro.flows.asic import WORKLOADS
from repro.optimize import anneal
from repro.physical import (
    Block,
    CongestionModel,
    GeometryError,
    SlicingFloorplanner,
    asic_clock_tree,
    custom_clock_tree,
    place,
    steiner_length_um,
    total_routed_length_um,
)
from repro.physical.geometry import Point
from repro.physical.placement import _PositionSwaps
from repro.pipeline import pipeline_module
from repro.sta import analyze, asic_clock, register_boundaries
from repro.tech import CMOS250_ASIC

RICH = rich_asic_library(CMOS250_ASIC)


class _NaiveSwaps(_PositionSwaps):
    """Oracle: re-measures every touched net from scratch on every step."""

    def __init__(self, placement):
        super().__init__(placement)
        self.touching = {
            inst.name: set(inst.inputs.values()) | set(inst.outputs.values())
            for inst in placement.module.iter_instances()
        }

    def apply(self, move):
        a, b = move
        nets = sorted(self.touching[a] | self.touching[b])
        before = sum(self.placement.net_length_um(n) for n in nets)
        self._swap(a, b)
        return sum(self.placement.net_length_um(n) for n in nets) - before

    def revert(self, move):
        self._swap(*move)


ORACLE_DESIGNS = {
    "pipelined_ks4": lambda: pipeline_module(
        kogge_stone_adder(4, RICH), RICH, stages=2
    ).module,
    "registered_alu4": lambda: register_boundaries(
        WORKLOADS["alu"](4, RICH), RICH
    ),
}


def blocks(n=6):
    return [Block(f"b{i}", area_um2=1e6 * (1 + i % 3)) for i in range(n)]


class TestFloorplanner:
    def test_produces_legal_plan(self):
        result = SlicingFloorplanner(blocks(), seed=3).run(iterations=600)
        plan = result.floorplan
        assert plan.check_no_overlap() == []
        assert len(plan.rects) == 6
        assert 0.5 < plan.utilization() <= 1.0

    def test_annealing_beats_initial(self):
        fp = SlicingFloorplanner(blocks(8), seed=7)
        initial_cost, _ = fp._cost(fp.initial_expression())
        result = fp.run(iterations=1500)
        assert result.cost <= initial_cost + 1e-9

    def test_wirelength_pulls_connected_blocks_together(self):
        nets = [["b0", "b5"]] * 5  # heavily connected pair
        fp = SlicingFloorplanner(blocks(6), nets=nets,
                                 wirelength_weight=0.8, seed=11)
        result = fp.run(iterations=2500)
        plan = result.floorplan
        d_connected = plan.center_of("b0").manhattan_to(plan.center_of("b5"))
        others = [
            plan.center_of("b0").manhattan_to(plan.center_of(f"b{i}"))
            for i in (1, 2, 3, 4)
        ]
        assert d_connected <= sorted(others)[-1]  # not the farthest block

    def test_validation(self):
        with pytest.raises(GeometryError):
            SlicingFloorplanner([Block("solo", 100.0)])
        with pytest.raises(GeometryError):
            SlicingFloorplanner(blocks(3), nets=[["b0", "missing"]])
        with pytest.raises(GeometryError):
            Block("bad", -1.0)


class TestPlacement:
    @pytest.fixture(scope="class")
    def adder(self):
        return kogge_stone_adder(8, RICH)

    def test_careful_beats_sloppy_wirelength(self, adder):
        careful = place(adder, RICH, quality="careful", seed=5)
        sloppy = place(adder, RICH, quality="sloppy", seed=5)
        assert careful.total_wirelength_um() < sloppy.total_wirelength_um()

    def test_careful_beats_sloppy_timing(self, adder):
        clk = asic_clock(20000.0)
        careful = place(adder, RICH, quality="careful", seed=5)
        sloppy = place(adder, RICH, quality="sloppy", seed=5)
        r_careful = analyze(adder, RICH, clk, wire=careful.parasitics(RICH))
        r_sloppy = analyze(adder, RICH, clk, wire=sloppy.parasitics(RICH))
        assert r_careful.min_period_ps < r_sloppy.min_period_ps

    def test_placement_deterministic(self, adder):
        p1 = place(adder, RICH, seed=9)
        p2 = place(adder, RICH, seed=9)
        assert p1.total_wirelength_um() == pytest.approx(
            p2.total_wirelength_um()
        )

    def test_all_instances_placed(self, adder):
        p = place(adder, RICH, seed=1)
        assert set(p.positions) == set(adder.instances)

    def test_parasitics_nonnegative(self, adder):
        p = place(adder, RICH, seed=1)
        w = p.parasitics(RICH)
        assert all(v >= 0 for v in w.extra_cap_ff.values())
        assert all(v >= 0 for v in w.extra_delay_ps.values())

    def test_bad_quality_rejected(self, adder):
        with pytest.raises(GeometryError):
            place(adder, RICH, quality="heroic")


class TestIncrementalNetLengths:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_swaps_match_naive_oracle(self, design, seed):
        module = ORACLE_DESIGNS[design]()
        # iterations=0 stops at the topological seed layout.
        fast = place(module, RICH, seed=seed, iterations=0)
        slow = place(module, RICH, seed=seed, iterations=0)
        steps = 40 * module.instance_count()
        temperature = fast.pitch_um * 4.0
        problem = _PositionSwaps(fast)
        accepted = anneal(problem, random.Random(seed), steps, temperature)
        oracle = anneal(_NaiveSwaps(slow), random.Random(seed), steps,
                        temperature)
        assert 0 < accepted < steps  # both accept and revert ran
        assert accepted == oracle
        assert fast.positions == slow.positions
        table = problem.nets
        assert table.lengths == [fast.net_length_um(n) for n in table.names]
        assert place(module, RICH, seed=seed).positions == fast.positions


class TestRouting:
    def test_steiner_matches_hpwl_small_nets(self):
        pins = [Point(0, 0), Point(10, 5)]
        assert steiner_length_um(pins) == pytest.approx(15.0)
        pins3 = [Point(0, 0), Point(10, 0), Point(5, 5)]
        assert steiner_length_um(pins3) == pytest.approx(15.0)

    def test_steiner_at_least_hpwl_large_nets(self):
        pins = [Point(x, (x * 7) % 13) for x in range(8)]
        hpwl = (max(p.x for p in pins) - min(p.x for p in pins)) + (
            max(p.y for p in pins) - min(p.y for p in pins)
        )
        assert steiner_length_um(pins) >= hpwl

    def test_congestion_inflates(self):
        model = CongestionModel()
        assert model.detour_factor(0.9) > model.detour_factor(0.5)
        assert model.detour_factor(0.3) == pytest.approx(model.base_detour)

    def test_total_routed_length(self):
        adder = kogge_stone_adder(4, RICH)
        p = place(adder, RICH, seed=2)
        assert total_routed_length_um(p) > 0


class TestClockTree:
    def test_custom_tree_has_less_skew(self):
        asic = asic_clock_tree(CMOS250_ASIC, 10000.0, 256)
        custom = custom_clock_tree(CMOS250_ASIC, 10000.0, 256)
        assert custom.skew_ps < asic.skew_ps
        assert custom.total_delay_ps <= asic.total_delay_ps + 1e9  # sane

    def test_skew_ratio_matches_paper_classes(self):
        # ASIC ~10% vs custom ~5% of cycle: the ratio of the two trees'
        # skews should be roughly 2x.
        asic = asic_clock_tree(CMOS250_ASIC, 10000.0, 1024)
        custom = custom_clock_tree(CMOS250_ASIC, 10000.0, 1024)
        # Mismatch 0.26 vs 0.05 plus faster (wide-wire) custom segments;
        # the *fraction-of-own-cycle* comparison (10% vs 5%) is made in
        # bench E5, where each tree is judged against its design class's
        # cycle time.
        ratio = asic.skew_ps / custom.skew_ps
        assert 5.0 < ratio < 12.0

    def test_more_sinks_more_levels(self):
        small = asic_clock_tree(CMOS250_ASIC, 10000.0, 16)
        big = asic_clock_tree(CMOS250_ASIC, 10000.0, 4096)
        assert big.levels > small.levels
        assert big.sinks >= 4096

    def test_skew_fraction(self):
        tree = asic_clock_tree(CMOS250_ASIC, 10000.0, 64)
        assert tree.skew_fraction(4000.0) == pytest.approx(tree.skew_ps / 4000.0)
