"""Designs and checks shared by the annealer oracle tests.

Both annealing problems (row-grid swaps and fabric slot moves) price a
move from :class:`repro.physical.placement.NetLengths`; their oracle
tests replay the same designs and check the table the same way.
"""

from repro.datapath import kogge_stone_adder
from repro.flows.asic import WORKLOADS
from repro.netlist.nets import is_port_ref
from repro.pipeline import pipeline_module
from repro.sta import register_boundaries

#: name -> builder(library) of each design the oracle tests replay.  The
#: registered 8-bit ALU is the one ``gap3`` places; it has wide nets
#: (>= 9 pins) and nets with port pins (see :func:`pin_counts`).
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
}


def pin_counts(module):
    """Per net: (pins, port pins), counting every endpoint."""
    counts = {}
    for name, net in module.nets.items():
        ends = [e for e in (net.driver, *net.sinks) if e is not None]
        counts[name] = (len(ends), sum(1 for e in ends if is_port_ref(e)))
    return counts


def assert_table_current(table, placement):
    """The table mirrors ``positions`` and caches fresh lengths, bitwise."""
    mirror = {name: (table.xs[i], table.ys[i])
              for name, i in table.index.items()}
    assert mirror == {name: (p.x, p.y)
                      for name, p in placement.positions.items()}
    assert table.lengths == [placement.net_length_um(n) for n in table.names]
