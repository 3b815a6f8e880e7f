"""Designs, a reference annealer and checks shared by the annealer tests.

Both placers (row-grid swaps and fabric slot moves) run the one
site-exchange kernel of :mod:`repro.optimize.anneal`, priced from a
:class:`repro.physical.placement.NetLengths` table.  Their oracle tests
replay the same designs against :func:`naive_anneal` and check the
table the same way.
"""

import math
import random

from repro.datapath import kogge_stone_adder
from repro.flows.asic import WORKLOADS
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.physical.placement import NetLengths
from repro.pipeline import pipeline_module
from repro.sta import register_boundaries


def random_logic(size):
    """``size`` gates wired at random from three inputs and earlier gates.

    From 4 gates up, the middle one is a flop on a ``clk`` port.  The
    last gate drives the output ``y``; unread gate outputs are one-pin
    nets.
    """
    rng = random.Random(size)
    module = Module(f"logic{size}")
    sources = [module.add_input(f"i{k}") for k in range(3)]
    module.add_input("clk")
    module.add_output("y")
    for g in range(size):
        out = "y" if g == size - 1 else f"n{g}"
        if size >= 4 and g == size // 2:
            module.add_instance(f"g{g}", "DFF_X1",
                                inputs={"D": rng.choice(sources), "CK": "clk"},
                                outputs={"Q": out})
        else:
            a, b = rng.sample(sources, 2)
            module.add_instance(f"g{g}", rng.choice(["NAND2_X1", "NOR2_X1"]),
                                inputs={"A": a, "B": b}, outputs={"Y": out})
        sources.append(out)
    return module


def fanout_logic(size, fanout):
    """:func:`random_logic` plus a gate ``h`` driving ``fanout`` inverters:
    net ``hub`` has ``fanout + 1`` pins."""
    module = random_logic(size)
    module.add_instance("h", "INV_X1", inputs={"A": "i0"},
                        outputs={"Y": "hub"})
    for k in range(fanout):
        module.add_instance(f"f{k}", "INV_X1", inputs={"A": "hub"},
                            outputs={"Y": f"fo{k}"})
    return module


#: name -> builder(library) of each design the oracle tests replay.  The
#: registered 8-bit ALU is the one ``gap3`` places; it has wide nets
#: (>= 9 pins) and nets with port pins (see :func:`pin_counts`).  The
#: ``logic`` designs straddle 21 instances, where ``random.sample``
#: switches from its pool path to its rejection path.  The kernel
#: prices a two-pin net as ``|a - b|`` and a wider one from its box; the
#: ``fanout`` designs put their ``hub`` net on either side of that line
#: (2 and 3 pins) and far above it (31 pins, like a register clock).
ORACLE_DESIGNS = {
    "pipelined_ks4": lambda lib: pipeline_module(
        kogge_stone_adder(4, lib), lib, stages=2
    ).module,
    "registered_alu4": lambda lib: register_boundaries(
        WORKLOADS["alu"](4, lib), lib
    ),
    "registered_alu8": lambda lib: register_boundaries(
        WORKLOADS["alu"](8, lib), lib
    ),
    "logic2": lambda lib: random_logic(2),
    "logic9": lambda lib: random_logic(9),
    "logic21": lambda lib: random_logic(21),
    "logic22": lambda lib: random_logic(22),
    "fanout1": lambda lib: fanout_logic(8, 1),
    "fanout2": lambda lib: fanout_logic(8, 2),
    "fanout30": lambda lib: fanout_logic(8, 30),
}


def pin_counts(module):
    """Per net: (pins, port pins), counting every endpoint."""
    counts = {}
    for name, net in module.nets.items():
        ends = [e for e in (net.driver, *net.sinks) if e is not None]
        counts[name] = (len(ends), sum(1 for e in ends if is_port_ref(e)))
    return counts


def assert_table_current(table, placement):
    """The table mirrors ``positions`` and caches fresh lengths and net
    boxes, bitwise."""
    mirror = {name: (table.xs[i], table.ys[i])
              for name, i in table.index.items()}
    assert mirror == {name: (p.x, p.y)
                      for name, p in placement.positions.items()}
    assert table.lengths == [placement.net_length_um(n) for n in table.names]
    assert table.boxes == NetLengths(placement).boxes


def capture_kernel(monkeypatch, module):
    """Record ``(nets, accepted)`` of every kernel call made by ``module``.

    The placers call the kernel through their module-level ``anneal``
    name; wrapping it there hands the test the table the kernel kept.
    """
    kernel = module.anneal
    calls = []

    def recording(nets, *args, **kwargs):
        accepted = kernel(nets, *args, **kwargs)
        calls.append((nets, accepted))
        return accepted

    monkeypatch.setattr(module, "anneal", recording)
    return calls


def fold(values):
    """Left-to-right total, as the kernel adds net lengths.

    Not ``sum()``: from Python 3.12 on it compensates float rounding.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def naive_anneal(placement, slot_of, center, propose, rng, steps,
                 temperature, final_fraction=0.02):
    """Reference annealer: move, re-measure from scratch, maybe undo.

    The Metropolis loop the kernel replaced, with every touched net
    re-measured through ``net_length_um`` before and after each move.
    ``slot_of`` maps instance -> slot (updated in place), ``center``
    gives a slot's position, and ``propose(rng)`` draws ``(name,
    slot)``: move ``name`` there, swapping with its occupant if any.
    Returns the accepted count.
    """
    positions = placement.positions
    length = placement.net_length_um
    touching = {
        inst.name: set(inst.inputs.values()) | set(inst.outputs.values())
        for inst in placement.module.iter_instances()
    }
    occupant = {slot: name for name, slot in slot_of.items()}

    def move(name, target):
        source = slot_of[name]
        other = occupant.pop(target, None)
        slot_of[name] = target
        occupant[target] = name
        positions[name] = center(target)
        del occupant[source]
        if other is not None:
            slot_of[other] = source
            occupant[source] = other
            positions[other] = center(source)

    accepted = 0
    cooling = math.exp(math.log(final_fraction) / max(steps, 1))
    for _ in range(steps):
        name, target = propose(rng)
        source = slot_of[name]
        delta = 0.0
        if source != target:
            nets = set(touching[name])
            if target in occupant:
                nets |= touching[occupant[target]]
            nets = sorted(nets)
            before = fold(length(n) for n in nets)
            move(name, target)
            delta = fold(length(n) for n in nets) - before
        if delta > 0 and rng.random() >= math.exp(
            -delta / max(temperature, 1e-9)
        ):
            move(name, source)
        else:
            accepted += 1
        temperature *= cooling
    return accepted
