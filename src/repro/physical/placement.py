"""Gate-level placement: row grid, HPWL objective, annealing refinement.

Section 5: "the primary factor in wire delay is wire length.  Wire length
is obviously dependent on placement".  The placer assigns every instance
a slot on a row grid, then improves total half-perimeter wirelength by
simulated annealing on pairwise swaps: the site-exchange kernel of
:mod:`repro.optimize.anneal`, with the instances' starting spots as its
sites, priced from a :class:`NetLengths` table of cached per-net
lengths.  Two quality settings bracket the paper's comparison:

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
from operator import itemgetter

from repro._fold import fold_sum
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.optimize.anneal import anneal, extremes
from repro.physical.geometry import GeometryError, Point
from repro.physical.wires import optimal_repeater_plan, optimal_segment_um
from repro.sta.timing_graph import WireParasitics

#: Routed length is longer than HPWL by a detour factor; 1.15 is a common
#: empirical allowance for lightly congested designs.
ROUTE_DETOUR = 1.15


def _routed_length(xs: list[float], ys: list[float], detour: float) -> float:
    """HPWL of a net's pin coordinates times the detour factor.

    The one length expression: :meth:`Placement.net_length_um` and the
    annealer's :class:`NetLengths` table both call it, so a cached
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
        return fold_sum(self.net_length_um(net) for net in self.module.nets)

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

    total_area = fold_sum(
        library.get(module.instance(i).cell_name).area_um2 for i in instances
    )
    die_area = total_area / utilization
    cols = max(1, math.ceil(math.sqrt(len(instances))))
    rows = max(1, math.ceil(len(instances) / cols))
    pitch = math.sqrt(die_area / (rows * cols))
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
    """Cached routed length per net, for the annealer kernel to reprice.

    Built once per anneal.  ``xs``/``ys`` mirror ``positions`` as flat
    floats indexed by instance id (``positions`` order); each net's
    fixed port pins follow as the one or two corners of their box (min
    and max are exact, so the corners give the same bits as every port
    pin).  A net is a tuple of mirror indices.  Net ids follow sorted
    net-name order, so a sum over sorted ids adds the same floats in
    the same order as a sum over sorted names: every accept/reject
    decision is independent of ``PYTHONHASHSEED``.

    Attributes:
        names: net name per id.
        lengths: cached routed length per id.
        index: instance name -> id in the coordinate mirror.
        touching: per instance id, the ids of the nets whose length a
            move of it can change (a net with one pin is always 0.0).
        pins: per net id, its mirror indices.
        pick: per net id, an ``itemgetter`` of its pins, or ``None`` for
            a two-pin net (measured as ``|a - b|`` by the kernel).
        boxes: per net id with a ``pick``, the two outermost pin
            coordinates on each side, ``(x0, x0b, x1, x1b, y0, y0b, y1,
            y1b)``: ``x0``/``x1`` are the extent, ``x0b``/``x1b`` the
            second smallest and second largest x (equal to ``x0``/``x1``
            when two pins share it), and likewise for y.  The kernel
            prices a one-pin move from them with comparisons alone.
    """

    def __init__(self, placement: Placement) -> None:
        module = placement.module
        positions = placement.positions
        self.detour = placement.detour_factor
        self.names = sorted(module.nets)
        self.index = {name: i for i, name in enumerate(positions)}
        self.xs = [p.x for p in positions.values()]
        self.ys = [p.y for p in positions.values()]
        self.touching: list[set[int]] = [set() for _ in self.index]
        self.pins: list[tuple[int, ...]] = []
        for k, name in enumerate(self.names):
            net = module.net(name)
            ends = [e for e in (net.driver, *net.sinks) if e is not None]
            instances = dict.fromkeys(
                self.index[e[0]] for e in ends if not is_port_ref(e))
            pins = list(instances)
            ports = [placement.port_positions[str(e).split(":", 1)[1]]
                     for e in ends if is_port_ref(e)]
            if ports:
                fx = [p.x for p in ports]
                fy = [p.y for p in ports]
                for x, y in dict.fromkeys([(min(fx), min(fy)),
                                           (max(fx), max(fy))]):
                    pins.append(len(self.xs))
                    self.xs.append(x)
                    self.ys.append(y)
            self.pins.append(tuple(pins))
            if len(pins) > 1:
                for i in instances:
                    self.touching[i].add(k)
        self.pick = [itemgetter(*pins) if len(pins) > 2 else None
                     for pins in self.pins]
        xs, ys = self.xs, self.ys
        self.lengths = [
            _routed_length([xs[i] for i in pins], [ys[i] for i in pins],
                           self.detour)
            for pins in self.pins
        ]
        self.boxes = [
            None if get is None else (*extremes(get(xs)), *extremes(get(ys)))
            for get in self.pick
        ]


def _anneal(placement: Placement, rng: random.Random, steps: int) -> None:
    """Pairwise-swap annealing on total HPWL.

    The sites are the instances' starting spots, all occupied, so a
    move of ``a`` onto ``b``'s site swaps the two.  ``positions`` is
    written back once, with the original ``Point`` objects.
    """
    positions = placement.positions
    n = len(positions)
    if n < 2:
        return
    nets = NetLengths(placement)
    site_of = list(range(n))
    if n > 21:
        # What rng.sample(names, 2) draws for a population over 21.
        randrange = rng.randrange

        def propose() -> tuple[int, int]:
            a = randrange(n)
            b = randrange(n)
            while b == a:
                b = randrange(n)
            return a, site_of[b]
    else:
        # Up to 21, rng.sample takes its pool path, which draws otherwise.
        sample, pool = rng.sample, range(n)

        def propose() -> tuple[int, int]:
            a, b = sample(pool, 2)
            return a, site_of[b]

    anneal(nets, nets.xs[:n], nets.ys[:n], site_of, list(range(n)), propose,
           rng, steps, temperature=placement.pitch_um * 4.0)
    spots = list(positions.values())
    positions.update(zip(list(positions), [spots[s] for s in site_of]))
