"""Unit tests for the structured-ASIC fabric and the shared annealer."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cells import rich_asic_library
from repro.datapath import kogge_stone_adder
from repro.netlist.module import Module
from repro.optimize import anneal
from repro.physical import (
    Fabric,
    FabricUtilization,
    GeometryError,
    SlotAssignment,
    assign_slots,
    fabric_for,
    fabric_pitch_um,
    place,
)
from repro.physical import fabric as fabric_module
from repro.physical.fabric import MASTER_EDGES, SLOT_PITCH_MARGIN, _anneal
from repro.physical.geometry import Point
from repro.physical.placement import NetLengths, Placement
from repro.pipeline import pipeline_module
from repro.sta import analyze, asic_clock
from repro.tech import CMOS250_ASIC
from tests.anneal_oracle import (
    ORACLE_DESIGNS,
    assert_table_current,
    capture_kernel,
    naive_anneal,
)

RICH = rich_asic_library(CMOS250_ASIC)

#: Places and assigns one design; prints positions and slots as JSON.
_HASH_PROBE = """
import json
from repro.cells import rich_asic_library
from repro.datapath import kogge_stone_adder
from repro.physical import assign_slots, fabric_for, place
from repro.pipeline import pipeline_module
from repro.tech import CMOS250_ASIC
lib = rich_asic_library(CMOS250_ASIC)
module = pipeline_module(kogge_stone_adder(4, lib), lib, stages=2).module
placed = place(module, lib, quality="careful", seed=3)
assigned = assign_slots(module, lib, fabric_for(module, lib), seed=3)
print(json.dumps({
    "positions": sorted((n, p.x, p.y) for n, p in placed.positions.items()),
    "slots": sorted((n, list(s)) for n, s in assigned.slot_of.items()),
}))
"""


@pytest.fixture(scope="module")
def adder():
    return kogge_stone_adder(4, RICH)


@pytest.fixture(scope="module")
def pipelined():
    comb = kogge_stone_adder(4, RICH)
    return pipeline_module(comb, RICH, stages=2).module


class TestFabricGeometry:
    def test_site_pattern_every_fourth_column_sequential(self):
        fabric = Fabric(rows=8, cols=8, pitch_um=10.0)
        kinds = [fabric.slot_kind(col) for col in range(8)]
        assert kinds == ["logic", "logic", "logic", "seq"] * 2

    def test_slot_counts_partition_the_master(self):
        fabric = Fabric(rows=8, cols=8, pitch_um=10.0)
        assert fabric.slot_count == 64
        assert fabric.seq_slot_count == 16
        assert fabric.logic_slot_count == 48
        assert (len(fabric.slots_of_kind("seq"))
                == fabric.seq_slot_count)
        assert (len(fabric.slots_of_kind("logic"))
                == fabric.logic_slot_count)

    def test_die_is_rows_by_cols_pitches(self):
        fabric = Fabric(rows=4, cols=8, pitch_um=10.0)
        assert fabric.die_width_um == 80.0
        assert fabric.die_height_um == 40.0
        assert fabric.die_edge_um == 80.0
        assert fabric.die_area_um2 == 3200.0

    def test_slots_of_kind_is_centre_out(self):
        fabric = Fabric(rows=8, cols=8, pitch_um=10.0)
        slots = fabric.slots_of_kind("logic")
        centre = fabric.slot_center(*slots[0])
        edge = fabric.slot_center(*slots[-1])

        def dist2(p):
            return (p.x - 40.0) ** 2 + (p.y - 40.0) ** 2

        assert dist2(centre) < dist2(edge)

    def test_validation(self):
        with pytest.raises(GeometryError):
            Fabric(rows=0, cols=8, pitch_um=10.0)
        with pytest.raises(GeometryError):
            Fabric(rows=8, cols=8, pitch_um=0.0)
        with pytest.raises(GeometryError):
            Fabric(rows=8, cols=8, pitch_um=10.0, seq_column_period=1)

    def test_utilization_accounting(self):
        fabric = Fabric(rows=8, cols=8, pitch_um=10.0)
        util = fabric.utilization(logic_used=24, seq_used=4)
        assert isinstance(util, FabricUtilization)
        assert util.logic == 24 / 48
        assert util.seq == 4 / 16
        assert util.overall == 28 / 64


class TestFabricFor:
    def test_pitch_fits_the_largest_cell(self):
        pitch = fabric_pitch_um(RICH)
        largest = max(cell.area_um2 for cell in RICH)
        assert pitch ** 2 == pytest.approx(
            largest * SLOT_PITCH_MARGIN ** 2
        )

    def test_picks_smallest_stocked_master(self, adder):
        fabric = fabric_for(adder, RICH, utilization=0.6)
        assert fabric.rows == fabric.cols
        assert fabric.rows in MASTER_EDGES
        logic = adder.instance_count()
        assert logic <= fabric.logic_slot_count * 0.6
        # The next size down must NOT fit -- smallest, not just "a" fit.
        smaller = MASTER_EDGES[MASTER_EDGES.index(fabric.rows) - 1]
        tighter = Fabric(rows=smaller, cols=smaller,
                         pitch_um=fabric.pitch_um)
        assert logic > tighter.logic_slot_count * 0.6

    def test_lower_target_utilization_buys_bigger_master(self, adder):
        tight = fabric_for(adder, RICH, utilization=0.9)
        slack = fabric_for(adder, RICH, utilization=0.1)
        assert slack.slot_count > tight.slot_count

    def test_rejects_bad_utilization_target(self, adder):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(GeometryError, match="utilization"):
                fabric_for(adder, RICH, utilization=bad)

    def test_rejects_design_too_big_for_any_master(self):
        big = kogge_stone_adder(64, RICH)
        with pytest.raises(GeometryError, match="does not fit"):
            fabric_for(big, RICH, utilization=0.0001)


class TestAssignSlots:
    def test_assignment_is_legal(self, pipelined):
        fabric = fabric_for(pipelined, RICH)
        assignment = assign_slots(pipelined, RICH, fabric, seed=3)
        seq_names = RICH.sequential_cell_names()
        slots = list(assignment.slot_of.values())
        assert len(slots) == len(set(slots))  # no double booking
        assert len(slots) == pipelined.instance_count()
        for name, (row, col) in assignment.slot_of.items():
            kind = ("seq"
                    if pipelined.instance(name).cell_name in seq_names
                    else "logic")
            assert fabric.slot_kind(col) == kind
            assert 0 <= row < fabric.rows and 0 <= col < fabric.cols
            centre = fabric.slot_center(row, col)
            assert assignment.positions[name] == centre

    def test_same_seed_same_assignment(self, pipelined):
        fabric = fabric_for(pipelined, RICH)
        a = assign_slots(pipelined, RICH, fabric, seed=7)
        b = assign_slots(pipelined, RICH, fabric, seed=7)
        assert a.slot_of == b.slot_of
        assert a.total_wirelength_um() == b.total_wirelength_um()

    def test_refinement_improves_wirelength(self, pipelined):
        fabric = fabric_for(pipelined, RICH)
        greedy = assign_slots(pipelined, RICH, fabric, refine=False)
        refined = assign_slots(pipelined, RICH, fabric, seed=3)
        assert (refined.total_wirelength_um()
                < greedy.total_wirelength_um())

    def test_over_subscribed_fabric_rejected(self, pipelined):
        tiny = Fabric(rows=2, cols=2,
                      pitch_um=fabric_pitch_um(RICH))
        with pytest.raises(GeometryError, match="slots"):
            assign_slots(pipelined, RICH, tiny)

    def test_placement_protocol_feeds_sta(self, pipelined):
        fabric = fabric_for(pipelined, RICH)
        assignment = assign_slots(pipelined, RICH, fabric, seed=3)
        assert isinstance(assignment, SlotAssignment)
        assert assignment.total_wirelength_um() > 0.0
        wire = assignment.parasitics(RICH)
        report = analyze(pipelined, RICH, asic_clock(20000.0), wire=wire)
        assert report.min_period_ps > 0
        # Parasitics are live: the sparse prefab grid must cost delay
        # versus an unloaded run of the same netlist.
        bare = analyze(pipelined, RICH, asic_clock(20000.0))
        assert report.min_period_ps > bare.min_period_ps

    def test_congestion_detour_beats_flat_allowance(self, pipelined):
        # A structured master is sparser than a packed row grid, so the
        # detour starts at the flat allowance and grows with demand.
        fabric = fabric_for(pipelined, RICH, utilization=0.9)
        slack = fabric_for(pipelined, RICH, utilization=0.1)
        tight_a = assign_slots(pipelined, RICH, fabric, refine=False)
        slack_a = assign_slots(pipelined, RICH, slack, refine=False)
        assert tight_a.detour_factor >= slack_a.detour_factor
        assert tight_a.utilization.overall > slack_a.utilization.overall


class TestIncrementalSlotMoves:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_slot_moves_match_naive_oracle(self, design, seed, monkeypatch):
        module = ORACLE_DESIGNS[design](RICH)
        fabric = fabric_for(module, RICH)
        fast = assign_slots(module, RICH, fabric, seed=seed, refine=False)
        slow = assign_slots(module, RICH, fabric, seed=seed, refine=False)
        seq_names = RICH.sequential_cell_names()
        kind_of = {
            inst.name: "seq" if inst.cell_name in seq_names else "logic"
            for inst in module.iter_instances()
        }
        by_kind = {kind: fabric.slots_of_kind(kind)
                   for kind in ("logic", "seq")}
        steps = 40 * module.instance_count()
        calls = capture_kernel(monkeypatch, fabric_module)
        rng = random.Random(seed)
        _anneal(fast, by_kind, kind_of, rng, steps)
        [(table, accepted)] = calls

        names = list(slow.positions)

        def propose(oracle_rng):
            name = names[oracle_rng.randrange(len(names))]
            slots = by_kind[kind_of[name]]
            return name, slots[oracle_rng.randrange(len(slots))]

        oracle_rng = random.Random(seed)
        oracle = naive_anneal(slow, slow.slot_of,
                              lambda slot: fabric.slot_center(*slot), propose,
                              oracle_rng, steps, fabric.pitch_um * 4.0)
        assert 0 < accepted < steps  # both accept and reject ran
        assert accepted == oracle
        assert fast.slot_of == slow.slot_of
        assert fast.positions == slow.positions
        assert rng.getstate() == oracle_rng.getstate()
        assert_table_current(table, fast)
        refined = assign_slots(module, RICH, fabric, seed=seed)
        assert refined.slot_of == fast.slot_of


class TestHashSeedIndependence:
    def test_place_and_assign_ignore_hash_seed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1", "4242"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_PROBE], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0]["positions"] and outputs[0]["slots"]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def _toy_layout():
    """Three gates in a chain, laid out backwards on a 3 x 3 site grid.

    Returns the placement and the kernel's sites: nine spots, the
    gates on the first three, six free (``-1``).
    """
    module = Module("chain3")
    module.add_input("a")
    module.add_output("y")
    for i, (src, out) in enumerate([("a", "n0"), ("n0", "n1"), ("n1", "y")]):
        module.add_instance(f"u{i}", "INV_X1", inputs={"A": src},
                            outputs={"Y": out})
    sx = [float(k % 3) for k in range(9)]
    sy = [float(k // 3) for k in range(9)]
    positions = {f"u{i}": Point(sx[2 - i], sy[2 - i]) for i in range(3)}
    ports = {"a": Point(-1.0, 0.0), "y": Point(3.0, 0.0)}
    placement = Placement(module, positions, ports, pitch_um=1.0)
    return placement, sx, sy, [2, 1, 0], [2, 1, 0, -1, -1, -1, -1, -1, -1]


def _anneal_toy(seed, steps):
    """Kernel on the toy layout; returns (accepted, table, site_of)."""
    placement, sx, sy, site_of, occupant = _toy_layout()
    table = NetLengths(placement)
    rng = random.Random(seed)

    def propose():
        return rng.randrange(3), rng.randrange(9)

    accepted = anneal(table, sx, sy, site_of, occupant, propose, rng,
                      steps=steps, temperature=2.0)
    assert sorted(i for i in occupant if i >= 0) == [0, 1, 2]
    assert all(occupant[s] == i for i, s in enumerate(site_of))
    return accepted, table, site_of


class TestAnneal:
    def test_minimises_toy_cost(self):
        start = sum(NetLengths(_toy_layout()[0]).lengths)
        accepted, table, site_of = _anneal_toy(1, 2000)
        assert 0 < accepted <= 2000
        # The straight chain along the port row halves the wirelength.
        assert site_of == [0, 1, 2]
        assert sum(table.lengths) == start / 2

    def test_zero_steps_is_noop(self):
        accepted, _, site_of = _anneal_toy(1, 0)
        assert (accepted, site_of) == (0, [2, 1, 0])

    def test_deterministic_for_a_seed(self):
        accepted, table, site_of = _anneal_toy(9, 500)
        again, table_again, site_of_again = _anneal_toy(9, 500)
        assert (accepted, site_of) == (again, site_of_again)
        assert table.lengths == table_again.lengths


