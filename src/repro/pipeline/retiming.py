"""Leiserson-Saxe retiming: moving registers to minimise the clock period.

The second half of Section 4's micro-architecture lever: once registers
exist, *where* they sit determines the critical path.  Custom designers
"balance the logic in pipeline stages after placement, ensuring that the
delays in each stage are close"; retiming is the algorithmic form of that
balancing.

The implementation follows the classic formulation: a retiming graph
``G = (V, E)`` with node propagation delays ``d(v)`` and edge register
weights ``w(e)``.  ``opt_period`` binary-searches the candidate periods
from the W/D matrices, testing each with the FEAS relaxation; a legal
retiming ``r`` transforms ``w_r(u, v) = w(u, v) + r(v) - r(u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._fold import fold_sum
from repro.pipeline.overheads import PipelineError

if TYPE_CHECKING:  # networkx is the optional ``retiming`` extra
    import networkx as nx


def make_retiming_graph(
    node_delays: dict[str, float],
    edges: list[tuple[str, str, int]],
) -> nx.DiGraph:
    """Build a retiming graph.

    Args:
        node_delays: propagation delay of each combinational node.
        edges: ``(u, v, weight)`` triples; weight = registers on the edge.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for node, delay in node_delays.items():
        if delay < 0:
            raise PipelineError(f"node {node}: negative delay")
        graph.add_node(node, delay=float(delay))
    for u, v, w in edges:
        if u not in graph or v not in graph:
            raise PipelineError(f"edge ({u}, {v}) references unknown node")
        if w < 0:
            raise PipelineError(f"edge ({u}, {v}): negative weight")
        graph.add_edge(u, v, weight=int(w))
    for cycle in nx.simple_cycles(graph):
        total = sum(
            graph[cycle[i]][cycle[(i + 1) % len(cycle)]]["weight"]
            for i in range(len(cycle))
        )
        if total == 0:
            raise PipelineError(f"zero-weight cycle {cycle}: not retimeable")
    return graph


def clock_period(graph: nx.DiGraph) -> float:
    """Critical-path delay through zero-weight edges (the current period)."""
    import networkx as nx

    zero = nx.DiGraph()
    zero.add_nodes_from(graph.nodes(data=True))
    for u, v, data in graph.edges(data=True):
        if data["weight"] == 0:
            zero.add_edge(u, v)
    period = 0.0
    arrival: dict[str, float] = {}
    for node in nx.topological_sort(zero):
        at = graph.nodes[node]["delay"] + max(
            (arrival[p] for p in zero.predecessors(node)), default=0.0
        )
        arrival[node] = at
        period = max(period, at)
    return period


def retime(graph: nx.DiGraph, r: dict[str, int]) -> nx.DiGraph:
    """Apply a retiming: ``w_r(u, v) = w(u, v) + r(v) - r(u)``.

    Raises:
        PipelineError: if the retiming is illegal (negative weight).
    """
    import networkx as nx

    out = nx.DiGraph()
    out.add_nodes_from(graph.nodes(data=True))
    for u, v, data in graph.edges(data=True):
        w = data["weight"] + r.get(v, 0) - r.get(u, 0)
        if w < 0:
            raise PipelineError(
                f"retiming makes edge ({u}, {v}) weight {w} negative"
            )
        out.add_edge(u, v, weight=w)
    return out


def feasible(graph: nx.DiGraph, period: float) -> dict[str, int] | None:
    """FEAS: find a retiming meeting ``period``, or None.

    Runs |V| - 1 relaxation rounds; after each, nodes whose arrival
    exceeds the period are incremented.
    """
    if period <= 0:
        raise PipelineError("period must be positive")
    r = {node: 0 for node in graph.nodes}
    for _ in range(max(1, len(graph) - 1)):
        current = retime(graph, r)
        arrivals = _arrival_times(current)
        changed = False
        for node, at in arrivals.items():
            if at > period + 1e-9:
                r[node] += 1
                changed = True
        if not changed:
            return r
    current = retime(graph, r)
    if clock_period(current) <= period + 1e-9:
        return r
    return None


def _arrival_times(graph: nx.DiGraph) -> dict[str, float]:
    import networkx as nx

    zero = nx.DiGraph()
    zero.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        if data["weight"] == 0:
            zero.add_edge(u, v)
    arrival: dict[str, float] = {}
    for node in nx.topological_sort(zero):
        arrival[node] = graph.nodes[node]["delay"] + max(
            (arrival[p] for p in zero.predecessors(node)), default=0.0
        )
    return arrival


@dataclass(frozen=True)
class RetimingResult:
    """Outcome of period-optimal retiming.

    Attributes:
        period: optimal achievable clock period.
        retiming: register-move counts per node.
        graph: the retimed graph.
        original_period: period before retiming.
    """

    period: float
    retiming: dict[str, int]
    graph: nx.DiGraph
    original_period: float

    @property
    def speedup(self) -> float:
        return self.original_period / self.period


def opt_period(graph: nx.DiGraph) -> RetimingResult:
    """Minimum-period retiming by binary search over candidate periods.

    Candidates are the distinct values of the D matrix (maximum path
    delays between register-distance-minimal pairs), per Leiserson-Saxe;
    we binary-search that sorted list with FEAS as the oracle.
    """
    original = clock_period(graph)
    candidates = _candidate_periods(graph)
    lo, hi = 0, len(candidates) - 1
    best: tuple[float, dict[str, int]] | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        r = feasible(graph, candidates[mid])
        if r is not None:
            best = (candidates[mid], r)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise PipelineError("no feasible period found (graph unretimeable)")
    period, r = best
    return RetimingResult(
        period=period,
        retiming=r,
        graph=retime(graph, r),
        original_period=original,
    )


def _candidate_periods(graph: nx.DiGraph) -> list[float]:
    """Distinct achievable periods: the D-matrix entries (W/D matrices).

    Shortest register distance breaks ties toward maximum delay, per the
    classic construction: order edges by (w, -d(u)) and take shortest
    paths.
    """
    import networkx as nx

    nodes = list(graph.nodes)
    big = math.inf
    w_mat = {u: {v: big for v in nodes} for u in nodes}
    d_mat = {u: {v: -big for v in nodes} for u in nodes}
    scale = 1.0 + fold_sum(graph.nodes[n]["delay"] for n in nodes)
    # Shortest path on composite weight w*scale - d(u); then recover.
    comp = nx.DiGraph()
    comp.add_nodes_from(nodes)
    for u, v, data in graph.edges(data=True):
        comp.add_edge(
            u, v, cost=data["weight"] * scale - graph.nodes[u]["delay"]
        )
    for source in nodes:
        try:
            lengths = nx.single_source_bellman_ford_path_length(
                comp, source, weight="cost"
            )
        except nx.NetworkXUnbounded:  # pragma: no cover - guarded earlier
            raise PipelineError("negative cycle in retiming graph") from None
        for target, cost in lengths.items():
            w = math.ceil((cost - 1e-9) / scale)
            w = max(w, 0)
            d = w * scale - cost + graph.nodes[target]["delay"]
            w_mat[source][target] = w
            d_mat[source][target] = d
    periods = {
        d_mat[u][v]
        for u in nodes
        for v in nodes
        if d_mat[u][v] > 0 and d_mat[u][v] != -big
    }
    periods |= {graph.nodes[n]["delay"] for n in nodes}
    return sorted(p for p in periods if p > 0)
