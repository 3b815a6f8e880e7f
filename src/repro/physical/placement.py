"""Gate-level placement: row grid, HPWL objective, annealing refinement.

Section 5: "the primary factor in wire delay is wire length.  Wire length
is obviously dependent on placement".  The placer assigns every instance
a slot on a row grid, then improves total half-perimeter wirelength by
simulated annealing on pairwise swaps.  Two quality settings bracket the
paper's comparison:

* ``careful`` -- topology-aware initial order plus a full annealing
  schedule (the custom / good-tool outcome);
* ``sloppy``  -- random scatter with no refinement (the unfloorplanned
  ASIC outcome Section 5.1 measures against).

The result exports :class:`~repro.sta.timing_graph.WireParasitics` via the
BACPAC-style models in :mod:`repro.physical.wires`, which is how placement
quality reaches the timing engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.optimize.anneal import anneal
from repro.physical.geometry import GeometryError, Point
from repro.physical.wires import optimal_repeater_plan, optimal_segment_um
from repro.sta.timing_graph import WireParasitics

#: Routed length is longer than HPWL by a detour factor; 1.15 is a common
#: empirical allowance for lightly congested designs.
ROUTE_DETOUR = 1.15


def _routed_length(xs: list[float], ys: list[float], detour: float) -> float:
    """HPWL of a net's pin coordinates times the detour factor.

    The one length expression: :meth:`Placement.net_length_um` and the
    annealers' :class:`NetLengths` table both call it, so a cached
    length is bit-for-bit the length a fresh query returns.
    """
    if len(xs) < 2:
        return 0.0
    return ((max(xs) - min(xs)) + (max(ys) - min(ys))) * detour


@dataclass
class Placement:
    """A placed netlist.

    Attributes:
        module: the placed netlist.
        positions: instance name -> location (um).
        port_positions: port name -> location on the die boundary.
        pitch_um: slot pitch of the placement grid.
        detour_factor: routed length over HPWL.
    """

    module: Module
    positions: dict[str, Point]
    port_positions: dict[str, Point]
    pitch_um: float
    detour_factor: float = ROUTE_DETOUR

    def net_length_um(self, net: str) -> float:
        """Estimated routed length of one net (HPWL x detour)."""
        pins = self._net_pins(net)
        return _routed_length(
            [p.x for p in pins], [p.y for p in pins], self.detour_factor
        )

    def _net_pins(self, net: str) -> list[Point]:
        pins: list[Point] = []
        driver = self.module.driver_of(net)
        if driver is not None:
            pins.append(self._endpoint_pos(driver, net))
        for sink in self.module.sinks_of(net):
            pins.append(self._endpoint_pos(sink, net))
        return pins

    def _endpoint_pos(self, endpoint: object, net: str) -> Point:
        if is_port_ref(endpoint):
            return self.port_positions[str(endpoint).split(":", 1)[1]]
        inst_name, _pin = endpoint
        return self.positions[inst_name]

    def total_wirelength_um(self) -> float:
        """Sum of estimated routed lengths over all nets."""
        return sum(self.net_length_um(net) for net in self.module.nets)

    def parasitics(self, library: CellLibrary) -> WireParasitics:
        """Wire parasitics for the timing engine.

        Short nets contribute their wire capacitance (seen by the driver)
        plus the distributed-RC flight time; nets longer than twice the
        optimal repeater segment are assumed repeated, contributing the
        repeater-chain delay and only the first repeater's input load.
        """
        tech = library.technology
        seg = optimal_segment_um(tech)
        extra_cap: dict[str, float] = {}
        extra_delay: dict[str, float] = {}
        for net in self.module.nets:
            length = self.net_length_um(net)
            if length <= 0.0:
                continue
            if length > 2.0 * seg:
                plan = optimal_repeater_plan(tech, length)
                extra_cap[net] = plan.repeater_drive * tech.unit_input_cap_ff
                extra_delay[net] = plan.delay_ps
            else:
                cw = tech.interconnect.wire_capacitance(length)
                rw = tech.interconnect.wire_resistance(length)
                extra_cap[net] = cw
                extra_delay[net] = 0.38 * rw * cw * 1e-3
        return WireParasitics(extra_cap_ff=extra_cap, extra_delay_ps=extra_delay)


def place(
    module: Module,
    library: CellLibrary,
    quality: str = "careful",
    seed: int = 1,
    utilization: float = 0.7,
    iterations: int | None = None,
    rng: random.Random | None = None,
) -> Placement:
    """Place a netlist on a row grid.

    Args:
        module: netlist to place.
        library: provides cell areas and the technology.
        quality: ``"careful"`` (topological seed + annealing) or
            ``"sloppy"`` (random scatter, no refinement).
        seed: RNG seed.  Flows thread ``FlowOptions.seed`` through here,
            so the seed stays part of the design point (it is a
            fingerprinted stage param, *not* a policy field -- two
            seeds are two different placements and must never share a
            cached stage or a resumed sweep point).
        utilization: cell area over die area.
        iterations: annealing steps (default scales with design size).
        rng: explicit RNG to draw from instead of ``Random(seed)``;
            lets callers (e.g. the structured placer's comparisons)
            share one stream across placement styles.

    Raises:
        GeometryError: for empty modules or bad parameters.
    """
    if quality not in ("careful", "sloppy"):
        raise GeometryError(f"unknown placement quality {quality!r}")
    if not 0.05 < utilization <= 1.0:
        raise GeometryError("utilization must be in (0.05, 1.0]")
    instances = list(module.instances)
    if not instances:
        raise GeometryError(f"module {module.name} has nothing to place")

    total_area = sum(
        library.get(module.instance(i).cell_name).area_um2 for i in instances
    )
    die_area = total_area / utilization
    cols = max(1, math.ceil(math.sqrt(len(instances))))
    rows = max(1, math.ceil(len(instances) / cols))
    pitch = math.sqrt(die_area / (rows * cols))
    if rng is None:
        rng = random.Random(seed)

    if quality == "careful":
        seq = library.sequential_cell_names()
        order = topological_order(module, seq)
    else:
        order = list(instances)
        rng.shuffle(order)

    positions: dict[str, Point] = {}
    for idx, name in enumerate(order):
        row, col = divmod(idx, cols)
        if row % 2 == 1:
            col = cols - 1 - col  # serpentine keeps neighbours adjacent
        positions[name] = Point((col + 0.5) * pitch, (row + 0.5) * pitch)

    die_w = cols * pitch
    die_h = rows * pitch
    port_positions: dict[str, Point] = {}
    ins = module.inputs()
    outs = module.outputs()
    for i, port in enumerate(ins):
        port_positions[port] = Point(0.0, die_h * (i + 1) / (len(ins) + 1))
    for i, port in enumerate(outs):
        port_positions[port] = Point(die_w, die_h * (i + 1) / (len(outs) + 1))

    placement = Placement(module, positions, port_positions, pitch)
    if quality == "careful":
        steps = iterations if iterations is not None else 40 * len(instances)
        _anneal(placement, rng, steps)
    return placement


class NetLengths:
    """Cached routed length per net, kept current across annealing moves.

    Built once per anneal.  Net ids follow sorted net-name order, so a
    sum over sorted ids adds the same floats in the same order as a sum
    over sorted names: every accept/reject decision is independent of
    ``PYTHONHASHSEED``.  :meth:`update` re-measures the nets a move
    touched and keeps the values it overwrote; :meth:`undo` writes them
    back when the annealer rejects the move.

    Attributes:
        names: net name per id.
        lengths: cached routed length per id.
        touching: instance name -> ids of the nets it connects to.
    """

    def __init__(self, placement: Placement) -> None:
        module = placement.module
        ports = placement.port_positions
        self.positions = placement.positions
        self.detour = placement.detour_factor
        self.names = sorted(module.nets)
        self.touching: dict[str, set[int]] = {
            name: set() for name in module.instances
        }
        # Per net: its fixed port pins and its instances (each once).
        self._ports: list[list[Point]] = []
        self._instances: list[list[str]] = []
        for k, name in enumerate(self.names):
            net = module.net(name)
            pins: list[Point] = []
            instances: dict[str, None] = {}
            for endpoint in [net.driver, *net.sinks]:
                if endpoint is None:
                    continue
                if is_port_ref(endpoint):
                    pins.append(ports[str(endpoint).split(":", 1)[1]])
                else:
                    instances[endpoint[0]] = None
            for instance in instances:
                self.touching[instance].add(k)
            self._ports.append(pins)
            self._instances.append(list(instances))
        self.lengths = [self._measure(k) for k in range(len(self.names))]
        self._saved: tuple[list[int], list[float]] = ([], [])

    def _measure(self, k: int) -> float:
        positions = self.positions
        points = self._ports[k] + [positions[n] for n in self._instances[k]]
        return _routed_length(
            [p.x for p in points], [p.y for p in points], self.detour
        )

    def nets_of(self, *instances: str) -> list[int]:
        """Sorted ids of every net touching any of ``instances``."""
        touched: set[int] = set()
        for name in instances:
            touched |= self.touching[name]
        return sorted(touched)

    def total(self, ids: list[int]) -> float:
        """Cached length summed over ``ids``, in the given order."""
        lengths = self.lengths
        return sum(lengths[k] for k in ids)

    def update(self, ids: list[int]) -> float:
        """Re-measure ``ids`` after a move; return their new :meth:`total`."""
        lengths = self.lengths
        self._saved = (ids, [lengths[k] for k in ids])
        for k in ids:
            lengths[k] = self._measure(k)
        return self.total(ids)

    def undo(self) -> None:
        """Restore the lengths the last :meth:`update` overwrote."""
        ids, old = self._saved
        for k, length in zip(ids, old):
            self.lengths[k] = length


class _PositionSwaps:
    """Annealing problem: pairwise position swaps on total HPWL.

    The move/cost half of the old in-place annealer; the schedule and
    acceptance rule now live in :func:`repro.optimize.anneal.anneal`.
    """

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.names = list(placement.positions)
        self.nets = NetLengths(placement)

    def propose(self, rng: random.Random) -> tuple[str, str]:
        a, b = rng.sample(self.names, 2)
        return a, b

    def _swap(self, a: str, b: str) -> None:
        positions = self.placement.positions
        positions[a], positions[b] = positions[b], positions[a]

    def apply(self, move: tuple[str, str]) -> float:
        ids = self.nets.nets_of(*move)
        before = self.nets.total(ids)
        self._swap(*move)
        return self.nets.update(ids) - before

    def revert(self, move: tuple[str, str]) -> None:
        self._swap(*move)
        self.nets.undo()


def _anneal(placement: Placement, rng: random.Random, steps: int) -> None:
    """Pairwise-swap annealing on total HPWL."""
    if len(placement.positions) < 2:
        return
    anneal(
        _PositionSwaps(placement), rng, steps=steps,
        temperature=placement.pitch_um * 4.0,
    )
