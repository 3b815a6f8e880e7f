"""Unit tests for repro.netlist.graph."""

import pytest

from repro.netlist import (
    CombinationalLoopError,
    Module,
    fanin_cone,
    fanout_cone,
    find_combinational_loop,
    instance_graph,
    levelize,
    logic_depth,
    max_fanout,
    primary_input_instances,
    primary_output_instances,
    topological_order,
)

SEQ = {"DFF_X1"}


def chain_module(n: int) -> Module:
    """in -> INV * n -> out."""
    m = Module("chain")
    prev = m.add_input("a")
    for i in range(n):
        nxt = f"w{i}"
        m.add_instance(f"i{i}", "INV_X1", inputs={"A": prev}, outputs={"Y": nxt})
        prev = nxt
    m.add_output("y")
    m.add_instance("buf", "BUF_X1", inputs={"A": prev}, outputs={"Y": "y"})
    return m


def pipelined_module() -> Module:
    """Two 2-gate stages separated by a flop."""
    m = Module("pipe")
    m.add_input("a")
    m.add_input("clk")
    m.add_output("y")
    m.add_instance("s1a", "INV_X1", inputs={"A": "a"}, outputs={"Y": "w1"})
    m.add_instance("s1b", "INV_X1", inputs={"A": "w1"}, outputs={"Y": "w2"})
    m.add_instance(
        "ff", "DFF_X1", inputs={"D": "w2", "CK": "clk"}, outputs={"Q": "w3"}
    )
    m.add_instance("s2a", "INV_X1", inputs={"A": "w3"}, outputs={"Y": "w4"})
    m.add_instance("s2b", "INV_X1", inputs={"A": "w4"}, outputs={"Y": "y"})
    return m


def loop_module() -> Module:
    """Two inverters driving each other."""
    m = Module("loop")
    m.add_instance("g1", "INV_X1", inputs={"A": "n2"}, outputs={"Y": "n1"})
    m.add_instance("g2", "INV_X1", inputs={"A": "n1"}, outputs={"Y": "n2"})
    return m


class TestOrdering:
    def test_topological_order_respects_edges(self):
        m = chain_module(5)
        order = topological_order(m)
        pos = {name: i for i, name in enumerate(order)}
        for i in range(4):
            assert pos[f"i{i}"] < pos[f"i{i+1}"]

    def test_loop_detection(self):
        m = loop_module()
        assert find_combinational_loop(m) == ["g1", "g2"]
        with pytest.raises(CombinationalLoopError, match=r"\['g1', 'g2'\]"):
            topological_order(m)

    def test_every_order_raises_the_typed_loop_error(self):
        from repro.cells.builder import rich_asic_library
        from repro.pipeline.balance import (
            _pipeline_with_stage_map,
            balanced_stage_assignment,
        )
        from repro.tech.process import CMOS250_ASIC

        library = rich_asic_library(CMOS250_ASIC)
        m = loop_module()
        for analysis in (
            levelize,
            logic_depth,
            lambda m: balanced_stage_assignment(m, library, 2),
            lambda m: _pipeline_with_stage_map(
                m, library, {"g1": 0, "g2": 0}, 1, "clk", False),
        ):
            with pytest.raises(CombinationalLoopError):
                analysis(m)

    def test_flop_breaks_loop(self):
        m = Module("fsm")
        m.add_input("clk")
        m.add_instance("g", "INV_X1", inputs={"A": "q"}, outputs={"Y": "d"})
        m.add_instance(
            "ff", "DFF_X1", inputs={"D": "d", "CK": "clk"}, outputs={"Q": "q"}
        )
        assert find_combinational_loop(m, SEQ) is None
        order = topological_order(m, SEQ)
        assert set(order) == {"g", "ff"}


class TestLevels:
    def test_chain_depth(self):
        assert logic_depth(chain_module(7)) == 8  # 7 INV + 1 BUF

    def test_empty_module_depth_zero(self):
        assert logic_depth(Module("empty")) == 0

    def test_pipeline_halves_depth(self):
        m = pipelined_module()
        assert logic_depth(m, SEQ) == 2
        assert logic_depth(m, sequential_cells=()) > 2

    def test_levelize_flop_at_zero(self):
        levels = levelize(pipelined_module(), SEQ)
        assert levels["ff"] == 0
        assert levels["s2a"] == 0  # first gate after the register
        assert levels["s2b"] == 1
        assert levels["s1b"] == 1

    def test_levels_monotone_along_edges(self):
        m = chain_module(6)
        levels = levelize(m)
        graph = instance_graph(m)
        for u, v in graph.edges:
            assert levels[v] > levels[u]


class TestCones:
    def test_fanin_cone_of_output(self):
        m = chain_module(3)
        cone = fanin_cone(m, "buf")
        assert cone == {"buf", "i0", "i1", "i2"}

    def test_fanout_cone_of_input_gate(self):
        m = chain_module(3)
        cone = fanout_cone(m, "i0")
        assert cone == {"i0", "i1", "i2", "buf"}

    def test_cone_stops_at_flop(self):
        m = pipelined_module()
        cone = fanin_cone(m, "s2b", SEQ)
        assert "ff" in cone
        assert "s1a" not in cone  # the flop blocks traversal

    def test_unknown_instance_raises(self):
        with pytest.raises(Exception):
            fanin_cone(chain_module(2), "missing")


class TestEndpoints:
    def test_primary_endpoints(self):
        m = pipelined_module()
        starts = set(primary_input_instances(m, SEQ))
        ends = set(primary_output_instances(m, SEQ))
        assert "s1a" in starts and "ff" in starts
        assert "s2b" in ends
        assert "s1b" in ends  # its only fanout is the (cut) register D pin

    def test_max_fanout(self):
        m = Module("fan")
        m.add_input("a")
        for i in range(5):
            m.add_instance(
                f"g{i}", "INV_X1", inputs={"A": "a"}, outputs={"Y": f"w{i}"}
            )
        assert max_fanout(m) == 5
