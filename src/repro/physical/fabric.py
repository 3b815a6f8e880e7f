"""Prefabricated structured-ASIC fabric: slot grid, site types, utilization.

The structured-ASIC style (the middle point of the gap spectrum) does
not place cells on a continuous row grid: the vendor prefabricates a
master -- a fixed grid of identical slots, a fraction of them wired as
sequential sites -- and the design is *assigned* to slots, with only
the metal layers personalised.  That changes the physical problem in
three ways this module models:

* placement becomes a slot-assignment problem (greedy seed + the shared
  site-exchange annealer of :mod:`repro.optimize.anneal`, whose sites
  are the master's slots, free ones included);
* area is the master bought, not the cells used -- utilization
  accounting per site type is a first-class output;
* wirelength inherits the slot pitch (sized for the largest library
  cell, so sparser than a packed row grid) and a congestion detour that
  grows as the site supply tightens.

:class:`SlotAssignment` satisfies the same placement protocol as
:class:`~repro.physical.placement.Placement` (``net_length_um``,
``total_wirelength_um``, ``parasitics``), so the WLM/CTS/STA stages
downstream run unchanged on a structured design.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.optimize.anneal import anneal
from repro.physical.geometry import GeometryError, Point
from repro.physical.placement import NetLengths, Placement, ROUTE_DETOUR
from repro.physical.routing import CongestionModel

#: Every Nth fabric column is prefabricated as sequential sites; the
#: rest are logic sites.  1-in-4 matches the flop-rich fabrics the
#: structured vendors shipped for pipelined datapaths.
SEQ_COLUMN_PERIOD = 4

#: Slot pitch margin over the largest library cell's footprint: prefab
#: slots must host *any* cell, plus personalisation-via routing space.
SLOT_PITCH_MARGIN = 1.1

#: Master sizes (slots per edge) the fabric vendor actually stocks --
#: a rounded geometric family, because masks are amortised per master.
MASTER_EDGES = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)


@dataclass(frozen=True)
class FabricUtilization:
    """Used vs prefabricated slots, per site type.

    Attributes:
        logic_used: combinational cells assigned to logic sites.
        logic_slots: logic sites on the master.
        seq_used: sequential cells assigned to sequential sites.
        seq_slots: sequential sites on the master.
    """

    logic_used: int
    logic_slots: int
    seq_used: int
    seq_slots: int

    @property
    def logic(self) -> float:
        """Logic-site utilization (0..1)."""
        return self.logic_used / self.logic_slots if self.logic_slots else 0.0

    @property
    def seq(self) -> float:
        """Sequential-site utilization (0..1)."""
        return self.seq_used / self.seq_slots if self.seq_slots else 0.0

    @property
    def overall(self) -> float:
        """All-site utilization (0..1)."""
        total = self.logic_slots + self.seq_slots
        return (self.logic_used + self.seq_used) / total if total else 0.0


@dataclass(frozen=True)
class Fabric:
    """A prefabricated slot-grid master.

    Attributes:
        rows: slot rows.
        cols: slot columns.
        pitch_um: slot pitch (slots are square).
        seq_column_period: every Nth column is sequential sites.
    """

    rows: int
    cols: int
    pitch_um: float
    seq_column_period: int = SEQ_COLUMN_PERIOD

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GeometryError("fabric needs at least one slot")
        if self.pitch_um <= 0:
            raise GeometryError("slot pitch must be positive")
        if self.seq_column_period < 2:
            raise GeometryError("sequential column period must be >= 2")

    @property
    def slot_count(self) -> int:
        """All slots on the master."""
        return self.rows * self.cols

    @property
    def seq_slot_count(self) -> int:
        """Sequential sites on the master."""
        return self.rows * (self.cols // self.seq_column_period)

    @property
    def logic_slot_count(self) -> int:
        """Logic sites on the master."""
        return self.slot_count - self.seq_slot_count

    @property
    def die_width_um(self) -> float:
        """Master width."""
        return self.cols * self.pitch_um

    @property
    def die_height_um(self) -> float:
        """Master height."""
        return self.rows * self.pitch_um

    @property
    def die_edge_um(self) -> float:
        """Edge of the (square-ish) master the clock tree must span."""
        return max(self.die_width_um, self.die_height_um)

    @property
    def die_area_um2(self) -> float:
        """Area of the master bought -- the structured area cost."""
        return self.die_width_um * self.die_height_um

    def slot_kind(self, col: int) -> str:
        """Site type of a column: ``"seq"`` or ``"logic"``."""
        period = self.seq_column_period
        return "seq" if col % period == period - 1 else "logic"

    def slot_center(self, row: int, col: int) -> Point:
        """Geometric centre of one slot."""
        return Point((col + 0.5) * self.pitch_um, (row + 0.5) * self.pitch_um)

    def slots_of_kind(self, kind: str) -> list[tuple[int, int]]:
        """(row, col) slots of one site type, centre-out.

        Centre-out order lets a small design on a big master cluster in
        the middle (short wires at low utilization) instead of filling
        a corner.
        """
        cx = self.cols / 2.0
        cy = self.rows / 2.0
        slots = [
            (row, col)
            for row in range(self.rows)
            for col in range(self.cols)
            if self.slot_kind(col) == kind
        ]
        slots.sort(
            key=lambda rc: (
                (rc[0] + 0.5 - cy) ** 2 + (rc[1] + 0.5 - cx) ** 2,
                rc,
            )
        )
        return slots

    def utilization(self, logic_used: int, seq_used: int) -> FabricUtilization:
        """Utilization accounting for a given cell demand."""
        return FabricUtilization(
            logic_used=logic_used,
            logic_slots=self.logic_slot_count,
            seq_used=seq_used,
            seq_slots=self.seq_slot_count,
        )


def _cell_demand(module: Module, library: CellLibrary) -> tuple[int, int]:
    """(logic, sequential) cell counts of a netlist."""
    seq_names = library.sequential_cell_names()
    seq = sum(
        1 for inst in module.iter_instances() if inst.cell_name in seq_names
    )
    return module.instance_count() - seq, seq


def fabric_pitch_um(library: CellLibrary) -> float:
    """Slot pitch for a library: the largest cell fits any slot."""
    max_area = max(cell.area_um2 for cell in library)
    return math.sqrt(max_area) * SLOT_PITCH_MARGIN


def fabric_for(
    module: Module,
    library: CellLibrary,
    utilization: float = 0.6,
    seq_column_period: int = SEQ_COLUMN_PERIOD,
) -> Fabric:
    """Pick the smallest stocked master that fits a netlist.

    Args:
        module: netlist to host.
        library: provides cell areas and sequential cell names.
        utilization: target *maximum* site utilization per site type;
            lower targets buy a bigger master (more slack, more die).
        seq_column_period: fabric family's sequential column period.

    Raises:
        GeometryError: when the target is unphysical or the design does
            not fit the largest stocked master.
    """
    if not 0.0 < utilization <= 1.0:
        raise GeometryError("target utilization must be in (0, 1]")
    logic, seq = _cell_demand(module, library)
    if logic + seq == 0:
        raise GeometryError(f"module {module.name} has nothing to assign")
    pitch = fabric_pitch_um(library)
    for edge in MASTER_EDGES:
        fabric = Fabric(rows=edge, cols=edge, pitch_um=pitch,
                        seq_column_period=seq_column_period)
        if (logic <= fabric.logic_slot_count * utilization
                and seq <= fabric.seq_slot_count * utilization):
            return fabric
    raise GeometryError(
        f"module {module.name} ({logic} logic + {seq} seq cells) does not "
        f"fit the largest {MASTER_EDGES[-1]}x{MASTER_EDGES[-1]} master at "
        f"{utilization:.0%} utilization"
    )


@dataclass
class SlotAssignment(Placement):
    """A netlist assigned onto fabric slots (placement protocol).

    Inherits the HPWL bookkeeping and parasitics export from
    :class:`~repro.physical.placement.Placement`; :func:`assign_slots`
    sets ``detour_factor`` from a congestion model instead of the flat
    allowance, because a tight master leaves the router fewer free
    tracks.

    Attributes:
        fabric: the master hosting the design.
        slot_of: instance name -> (row, col) slot.
        utilization: per-site-type accounting of the assignment.
    """

    fabric: Fabric = None
    slot_of: dict[str, tuple[int, int]] = field(default_factory=dict)
    utilization: FabricUtilization = None


def assign_slots(
    module: Module,
    library: CellLibrary,
    fabric: Fabric,
    seed: int = 1,
    refine: bool = True,
    iterations: int | None = None,
) -> SlotAssignment:
    """Assign a netlist onto a fabric: greedy seed + annealed refinement.

    The greedy pass walks the topological instance order into the
    centre-out slot order of each site type; refinement anneals slot
    moves/swaps with the shared site-exchange annealer (same schedule
    family as the continuous placer's swap refinement), drawing from
    ``Random(seed)``.

    Args:
        module: netlist to assign.
        library: provides sequential cell names and the technology.
        fabric: the prefabricated master.
        seed: RNG seed (a fingerprinted design-point knob, like the
            continuous placer's).
        refine: anneal after the greedy seed.
        iterations: annealing steps (default scales with design size).

    Raises:
        GeometryError: when a site type is over-subscribed.
    """
    instances = list(module.instances)
    if not instances:
        raise GeometryError(f"module {module.name} has nothing to assign")
    seq_names = library.sequential_cell_names()
    kind_of = {
        name: ("seq" if module.instance(name).cell_name in seq_names
               else "logic")
        for name in instances
    }
    logic = sum(1 for kind in kind_of.values() if kind == "logic")
    seq = len(instances) - logic
    if logic > fabric.logic_slot_count or seq > fabric.seq_slot_count:
        raise GeometryError(
            f"module {module.name} needs {logic} logic + {seq} seq slots; "
            f"fabric offers {fabric.logic_slot_count} + "
            f"{fabric.seq_slot_count}"
        )
    by_kind = {kind: fabric.slots_of_kind(kind) for kind in ("logic", "seq")}
    free = {kind: iter(slots) for kind, slots in by_kind.items()}
    slot_of: dict[str, tuple[int, int]] = {}
    positions: dict[str, Point] = {}
    for name in topological_order(module, seq_names):
        slot = next(free[kind_of[name]])
        slot_of[name] = slot
        positions[name] = fabric.slot_center(*slot)

    die_w = fabric.die_width_um
    die_h = fabric.die_height_um
    port_positions: dict[str, Point] = {}
    ins = module.inputs()
    outs = module.outputs()
    for i, port in enumerate(ins):
        port_positions[port] = Point(0.0, die_h * (i + 1) / (len(ins) + 1))
    for i, port in enumerate(outs):
        port_positions[port] = Point(die_w, die_h * (i + 1) / (len(outs) + 1))

    utilization = fabric.utilization(logic_used=logic, seq_used=seq)
    detour = CongestionModel(base_detour=ROUTE_DETOUR).detour_factor(
        utilization.overall
    )
    assignment = SlotAssignment(
        module=module,
        positions=positions,
        port_positions=port_positions,
        pitch_um=fabric.pitch_um,
        fabric=fabric,
        slot_of=slot_of,
        detour_factor=detour,
        utilization=utilization,
    )
    if refine and len(instances) >= 2:
        steps = iterations if iterations is not None else 40 * len(instances)
        _anneal(assignment, by_kind, kind_of, random.Random(seed), steps)
    return assignment


def _anneal(assignment: SlotAssignment,
            by_kind: dict[str, list[tuple[int, int]]],
            kind_of: dict[str, str], rng: random.Random, steps: int) -> None:
    """Slot moves/swaps on total HPWL.

    The sites are every logic slot, then every seq slot, each kind in
    centre-out order; ``-1`` marks a free one.  A move targets any slot
    of the instance's kind -- occupied (swap) or free (relocate) -- so
    the annealer can both untangle crossings and pull the design
    together on a sparse master.  ``slot_of`` and ``positions`` are
    written back once, after the loop.
    """
    slots = by_kind["logic"] + by_kind["seq"]
    site = {slot: s for s, slot in enumerate(slots)}
    centres = [assignment.fabric.slot_center(*slot) for slot in slots]
    names = list(assignment.positions)
    site_of = [site[assignment.slot_of[name]] for name in names]
    occupant = [-1] * len(slots)
    for i, s in enumerate(site_of):
        occupant[s] = i
    logic = len(by_kind["logic"])
    span = {"logic": (0, logic), "seq": (logic, len(by_kind["seq"]))}
    span_of = [span[kind_of[name]] for name in names]
    n = len(names)
    randrange = rng.randrange

    def propose() -> tuple[int, int]:
        a = randrange(n)
        base, count = span_of[a]
        return a, base + randrange(count)

    anneal(NetLengths(assignment), [p.x for p in centres],
           [p.y for p in centres], site_of, occupant, propose, rng, steps,
           temperature=assignment.pitch_um * 4.0)
    for name, s in zip(names, site_of):
        assignment.slot_of[name] = slots[s]
        assignment.positions[name] = centres[s]
