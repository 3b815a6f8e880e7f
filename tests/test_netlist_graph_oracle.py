"""The netlist graph's orders against networkx, the former implementation.

Placement's initial order and STA levelisation come from
``topological_order``, so the goldens pin networkx's
``topological_sort`` order: generation by generation, sources in node
order, children in edge order.  networkx is only the oracle here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.builder import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.netlist import (
    Module,
    find_combinational_loop,
    instance_graph,
    is_port_ref,
    levelize,
    topological_order,
)
from repro.pipeline.balance import balanced_stage_assignment
from repro.sta.sequential import register_boundaries
from repro.tech.process import CMOS250_ASIC

nx = pytest.importorskip("networkx")

LIB = rich_asic_library(CMOS250_ASIC)
SEQ = LIB.sequential_cell_names()
ARITY = {"INV_X1": 1, "NAND2_X1": 2, "NOR3_X1": 3, "DFF_X1": 1}
PINS = ("A", "B", "C")


def nx_graph(module: Module, sequential_cells=()) -> "nx.DiGraph":
    """The instance graph as networkx built it."""
    graph = nx.DiGraph()
    for inst in module.iter_instances():
        graph.add_node(inst.name, sequential=inst.cell_name in sequential_cells)
    for inst in module.iter_instances():
        for net in inst.fanout_nets():
            for sink in module.sinks_of(net):
                if is_port_ref(sink) or graph.nodes[sink[0]]["sequential"]:
                    continue
                graph.add_edge(inst.name, sink[0])
    return graph


def nx_levels(graph: "nx.DiGraph") -> list[tuple[str, int]]:
    seq = nx.get_node_attributes(graph, "sequential")
    levels: dict[str, int] = {}
    for name in nx.topological_sort(graph):
        levels[name] = 0 if seq[name] else max(
            (0 if seq[p] else levels[p] + 1 for p in graph.predecessors(name)),
            default=0,
        )
    return list(levels.items())


@st.composite
def random_module(draw, acyclic: bool = True) -> Module:
    """Random gates and flops declared in a shuffled order.

    Acyclic: gate ``k`` of the hidden order reads only earlier outputs.
    Otherwise a gate may read any output, its own included.
    """
    n_inputs = draw(st.integers(1, 3))
    n_gates = draw(st.integers(1, 30))
    cells = [draw(st.sampled_from(sorted(ARITY))) for _ in range(n_gates)]
    m = Module("rand")
    inputs = [m.add_input(f"in{i}") for i in range(n_inputs)]
    declared = draw(st.permutations(range(n_gates)))
    for g in declared:
        pool = inputs + [f"w{k}" for k in range(g if acyclic else n_gates)]
        picks = [draw(st.sampled_from(pool)) for _ in range(ARITY[cells[g]])]
        m.add_instance(f"g{g}", cells[g],
                       inputs=dict(zip(PINS, picks)), outputs={"Y": f"w{g}"})
    return m


@settings(max_examples=150, deadline=None)
@given(random_module(), st.booleans())
def test_orders_match_networkx_on_random_dags(m: Module, cut: bool):
    seq = SEQ if cut else ()
    graph = nx_graph(m, seq)
    assert instance_graph(m, seq).edges == list(graph.edges)
    assert topological_order(m, seq) == list(nx.topological_sort(graph))
    assert list(levelize(m, seq).items()) == nx_levels(graph)


@settings(max_examples=150, deadline=None)
@given(random_module(acyclic=False), st.booleans())
def test_loop_matches_networkx_find_cycle(m: Module, cut: bool):
    seq = SEQ if cut else ()
    graph = nx_graph(m, seq)
    try:
        expected = [u for u, _v in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        expected = None
    assert find_combinational_loop(m, seq) == expected


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_orders_match_networkx_on_workloads(workload: str, bits: int):
    comb = WORKLOADS[workload](bits, LIB)
    comb_graph = nx_graph(comb)
    order = list(nx.topological_sort(comb_graph))
    assert topological_order(comb) == order
    assert list(balanced_stage_assignment(comb, LIB, 4).stage_of) == order
    registered = register_boundaries(comb, LIB)
    graph = nx_graph(registered, SEQ)
    assert topological_order(registered, SEQ) == list(nx.topological_sort(graph))
    assert list(levelize(registered, SEQ).items()) == nx_levels(graph)
