"""Graph views of a netlist: ordering, levelisation, cones, depth.

These are the structural analyses shared by synthesis, STA, retiming and
placement.  Sequential elements (flip-flops, latches) act as barriers: the
combinational graph is cut at their boundaries, which is exactly the
pipelining structure Section 4 of the paper reasons about ("pipelines
place additional latches or registers in long chains of logic, reducing
the length of the critical path").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection

from repro.netlist.module import Module
from repro.netlist.nets import Instance, NetlistError, is_port_ref


class CombinationalLoopError(NetlistError):
    """Raised when a combinational cycle is found where none is allowed."""


class InstanceGraph:
    """Directed graph over instance names, as adjacency dicts.

    Edges are de-duplicated and kept in first-insertion order, and
    ``sequential`` flags each node.  :meth:`topological_order` is
    networkx's ``topological_sort`` order, which placement and STA
    levelisation inherit.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sequential: dict[str, bool] = {}
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def add_node(self, node: str, sequential: bool) -> None:
        self.sequential[node] = sequential
        self._succ[node] = {}
        self._pred[node] = {}

    def add_edge(self, u: str, v: str) -> None:
        self._succ[u][v] = None
        self._pred[v][u] = None

    def __contains__(self, node: object) -> bool:
        return node in self.sequential

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def successors(self, node: str) -> Collection[str]:
        return self._succ[node].keys()

    def predecessors(self, node: str) -> Collection[str]:
        return self._pred[node].keys()

    def topological_order(self) -> list[str]:
        """Kahn's sort, generation by generation.

        Each generation lists its nodes in the order they reached zero
        in-degree: the sources in node order, then each node's children
        in edge order.

        Raises:
            CombinationalLoopError: naming one cycle.
        """
        indegree = {v: len(p) for v, p in self._pred.items() if p}
        generation = [v for v, p in self._pred.items() if not p]
        order: list[str] = []
        while generation:
            order += generation
            ready = []
            for node in generation:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        del indegree[child]
                        ready.append(child)
            generation = ready
        if indegree:
            raise CombinationalLoopError(
                f"module {self.name} has a combinational loop: "
                f"{self.find_cycle()}"
            )
        return order

    def find_cycle(self) -> list[str] | None:
        """The first cycle a depth-first search meets, or None.

        Roots are tried in node order and children in edge order; the
        cycle starts at the node the search returned to.
        """
        done: set[str] = set()
        for root in self._succ:
            if root in done:
                continue
            path, stack = [root], [iter(self._succ[root])]
            while stack:
                for child in stack[-1]:
                    if child in path:
                        return path[path.index(child):]
                    if child not in done:
                        path.append(child)
                        stack.append(iter(self._succ[child]))
                        break
                else:
                    stack.pop()
                    done.add(path.pop())
        return None


def instance_graph(
    module: Module, sequential_cells: Collection[str] = ()
) -> InstanceGraph:
    """Directed graph over instances, with edges following nets.

    Edges *into* sequential instances are cut, so the resulting graph is
    the combinational connectivity: a register appears as a source node
    feeding its fanout logic, and the gates driving its D pin appear as
    path endpoints.  Instances (sequential ones included) are all present
    as nodes.

    Args:
        module: the netlist.
        sequential_cells: names of library cells that are registers or
            latches; may be a set of names or anything supporting ``in``.
    """
    graph = InstanceGraph(module.name)
    seq = set(sequential_cells)
    for inst in module.iter_instances():
        graph.add_node(inst.name, inst.cell_name in seq)
    for inst in module.iter_instances():
        for net_name in inst.fanout_nets():
            for sink in module.sinks_of(net_name):
                if is_port_ref(sink):
                    continue
                sink_inst, _pin = sink
                if graph.sequential[sink_inst]:
                    continue  # cut edges entering sequential elements
                graph.add_edge(inst.name, sink_inst)
    return graph


def topological_order(
    module: Module, sequential_cells: Collection[str] = ()
) -> list[str]:
    """Instances in combinational topological order.

    Raises:
        CombinationalLoopError: if the combinational graph has a cycle.
    """
    return instance_graph(module, sequential_cells).topological_order()


def find_combinational_loop(
    module: Module, sequential_cells: Collection[str] = ()
) -> list[str] | None:
    """Return one combinational cycle as a list of instance names, or None."""
    return instance_graph(module, sequential_cells).find_cycle()


def levelize(
    module: Module, sequential_cells: Collection[str] = ()
) -> dict[str, int]:
    """Assign each instance its combinational logic level.

    Level 0 instances read only module inputs and/or register outputs;
    level k instances have at least one level-(k-1) combinational fanin.
    Sequential instances themselves sit at level 0, and feeding from a
    register does not add a level (the register output is a path start).
    """
    graph = instance_graph(module, sequential_cells)
    seq = graph.sequential
    levels: dict[str, int] = {}
    for name in graph.topological_order():
        levels[name] = 0 if seq[name] else max(
            (0 if seq[p] else levels[p] + 1 for p in graph.predecessors(name)),
            default=0,
        )
    return levels


def logic_depth(module: Module, sequential_cells: Collection[str] = ()) -> int:
    """Maximum number of combinational gates on any register-to-register,
    input-to-register or input-to-output path.

    This is the unit-delay analogue of the FO4 path depth of Section 4:
    an ASIC with "significantly more levels of logic on the critical path"
    has a larger value here.
    """
    if module.instance_count() == 0:
        return 0
    levels = levelize(module, sequential_cells)
    comb = [
        lvl + 1
        for name, lvl in levels.items()
        if module.instance(name).cell_name not in set(sequential_cells)
    ]
    return max(comb, default=0)


def fanin_cone(
    module: Module,
    start: str,
    sequential_cells: Collection[str] = (),
) -> set[str]:
    """Instances in the combinational fan-in cone of an instance.

    The cone stops at sequential elements and module inputs; the starting
    instance is included.
    """
    graph = instance_graph(module, sequential_cells)
    if start not in graph:
        raise NetlistError(f"no instance {start!r} in module {module.name}")
    cone = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for pred in graph.predecessors(node):
            if pred not in cone:
                cone.add(pred)
                if not graph.sequential[pred]:
                    frontier.append(pred)
    return cone


def fanout_cone(
    module: Module,
    start: str,
    sequential_cells: Collection[str] = (),
) -> set[str]:
    """Instances in the combinational fan-out cone of an instance."""
    graph = instance_graph(module, sequential_cells)
    if start not in graph:
        raise NetlistError(f"no instance {start!r} in module {module.name}")
    cone = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for succ in graph.successors(node):
            if succ not in cone:
                cone.add(succ)
                if not graph.sequential[succ]:
                    frontier.append(succ)
    return cone


def max_fanout(module: Module) -> int:
    """Largest sink count on any net -- a driver-sizing stress indicator."""
    return max((net.fanout for net in module.nets.values()), default=0)


def primary_input_instances(
    module: Module, sequential_cells: Collection[str] = ()
) -> list[str]:
    """Instances with no combinational fan-in (path start points)."""
    graph = instance_graph(module, sequential_cells)
    return [n for n in graph.sequential if not graph.predecessors(n)]


def primary_output_instances(
    module: Module, sequential_cells: Collection[str] = ()
) -> list[str]:
    """Instances with no combinational fan-out (path end points)."""
    graph = instance_graph(module, sequential_cells)
    return [n for n in graph.sequential if not graph.successors(n)]
