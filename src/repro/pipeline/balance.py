"""Delay-weighted pipeline stage balancing.

Section 4.1: "In a custom processor, careful design can balance the logic
in pipeline stages after placement, ensuring that the delays in each
stage are close, whereas an ASIC may have unbalanced pipeline stages
resulting in more levels of logic on the critical path."

The default pipeliner buckets by *gate count* (unit levels).  This module
re-buckets by *accumulated delay*: each instance is assigned a stage so
that the estimated delay per stage is as even as possible, then the
cutset construction of :mod:`repro.pipeline.pipeliner` applies.  The
measurable payoff is a lower post-STA period at the same stage count --
exactly the custom team's balancing advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.library import CellLibrary
from repro.netlist.graph import instance_graph
from repro.netlist.module import Module
from repro.pipeline.overheads import PipelineError


@dataclass(frozen=True)
class BalanceReport:
    """Stage assignment quality.

    Attributes:
        stage_of: instance -> stage index.
        stage_delays_ps: estimated combinational delay per stage.
        stages: stage count.
    """

    stage_of: dict[str, int]
    stage_delays_ps: tuple[float, ...]
    stages: int

    @property
    def imbalance(self) -> float:
        """Max stage delay over mean stage delay (1.0 = perfect)."""
        mean = sum(self.stage_delays_ps) / len(self.stage_delays_ps)
        return max(self.stage_delays_ps) / mean if mean else 1.0


def estimate_gate_delays(
    module: Module, library: CellLibrary, fanout_cap_ff: float | None = None
) -> dict[str, float]:
    """Per-instance delay estimate at a nominal load.

    A quick pre-placement estimate: every gate drives its actual sink
    pins (or a default load); used as node weights for balancing.
    """
    delays: dict[str, float] = {}
    default_load = (
        fanout_cap_ff
        if fanout_cap_ff is not None
        else 4.0 * library.technology.unit_input_cap_ff
    )
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            delays[inst.name] = 0.0
            continue
        out_net = next(iter(inst.outputs.values()), None)
        load = default_load
        if out_net is not None:
            pin_load = 0.0
            for sink in module.sinks_of(out_net):
                if isinstance(sink, tuple):
                    sink_cell = library.get(
                        module.instance(sink[0]).cell_name
                    )
                    pin_load += sink_cell.input_cap_ff(sink[1])
            if pin_load > 0:
                load = pin_load
        delays[inst.name] = cell.worst_delay_ps(load)
    return delays


def balanced_stage_assignment(
    module: Module,
    library: CellLibrary,
    stages: int,
) -> BalanceReport:
    """Assign instances to stages with even *delay* per stage.

    Instances are processed in topological order; each is placed in the
    earliest stage consistent with its predecessors such that the
    accumulated critical delay within the stage stays below the target
    ``total_path_delay / stages``.

    Raises:
        PipelineError: for invalid stage counts or sequential inputs.
    """
    if stages < 1:
        raise PipelineError("stage count must be at least 1")
    seq = library.sequential_cell_names()
    for inst in module.iter_instances():
        if inst.cell_name in seq:
            raise PipelineError("balancing expects a combinational module")
    delays = estimate_gate_delays(module, library)
    graph = instance_graph(module)
    order = graph.topological_order()
    # Critical-path arrival with delay weights.
    arrival: dict[str, float] = {}
    for name in order:
        preds = list(graph.predecessors(name))
        arrival[name] = delays[name] + max(
            (arrival[p] for p in preds), default=0.0
        )
    total = max(arrival.values(), default=0.0)
    if total <= 0:
        raise PipelineError("module has no combinational delay")
    target = total / stages
    stage_of: dict[str, int] = {}
    for name in order:
        # Stage by delay position of the gate's *completion* time.
        stage = min(stages - 1, int((arrival[name] - 1e-9) // target))
        # Never earlier than any predecessor.
        for p in graph.predecessors(name):
            stage = max(stage, stage_of[p])
        stage_of[name] = stage
    stage_delays = [0.0] * stages
    stage_start: dict[str, float] = {}
    for name in order:
        preds = [
            p for p in graph.predecessors(name)
            if stage_of[p] == stage_of[name]
        ]
        start = max((stage_start[p] for p in preds), default=0.0)
        stage_start[name] = start + delays[name]
        stage_delays[stage_of[name]] = max(
            stage_delays[stage_of[name]], stage_start[name]
        )
    return BalanceReport(
        stage_of=stage_of,
        stage_delays_ps=tuple(stage_delays),
        stages=stages,
    )


def pipeline_module_balanced(
    module: Module,
    library: CellLibrary,
    stages: int,
    clock_name: str = "clk",
    use_latches: bool = False,
):
    """Pipeline with delay-balanced cuts instead of unit-level cuts.

    Returns the same :class:`~repro.pipeline.pipeliner.PipelineReport`
    as :func:`~repro.pipeline.pipeliner.pipeline_module`.
    """
    from repro.pipeline import pipeliner as _p

    if stages < 1:
        raise PipelineError("stage count must be at least 1")
    assignment = balanced_stage_assignment(module, library, stages)

    # Reuse the pipeliner by monkey-free injection: replicate its body
    # with our stage map.  (The pipeliner's bucketing is the only thing
    # that changes.)
    return _pipeline_with_stage_map(
        module, library, assignment.stage_of, stages, clock_name, use_latches
    )


def _pipeline_with_stage_map(
    module: Module,
    library: CellLibrary,
    stage_of: dict[str, int],
    stages: int,
    clock_name: str,
    use_latches: bool,
):
    from repro.pipeline.pipeliner import PipelineReport

    seq_cell = library.latch() if use_latches else library.flip_flop()
    clock_pin = seq_cell.sequential.clock_pin
    piped = Module(f"{module.name}_bal{stages}")
    clk = piped.add_input(clock_name)
    registers = 0

    source_stage: dict[str, int] = {}
    net_map_base: dict[str, str] = {}
    for port in module.inputs():
        outer = piped.add_input(port)
        inner = piped.add_net(f"{port}_s0")
        piped.add_instance(
            f"pin_{port}", seq_cell.name,
            inputs={"D": outer, clock_pin: clk},
            outputs={seq_cell.output: inner},
        )
        registers += 1
        net_map_base[port] = inner
        source_stage[port] = 0

    out_rename = {p: f"{p}_pre" for p in module.outputs()}
    for inst in module.iter_instances():
        for net in inst.outputs.values():
            source_stage[out_rename.get(net, net)] = stage_of[inst.name]

    chains: dict[str, list[str]] = {}
    count = [registers]

    def delayed(net: str, hops: int) -> str:
        if hops <= 0:
            return net_map_base.get(net, net)
        chain = chains.setdefault(net, [])
        while len(chain) < hops:
            src = chain[-1] if chain else net_map_base.get(net, net)
            out = piped.add_net(f"{net}_d{len(chain) + 1}")
            piped.add_instance(
                None, seq_cell.name,
                inputs={"D": src, clock_pin: clk},
                outputs={seq_cell.output: out},
            )
            count[0] += 1
            chain.append(out)
        return chain[hops - 1]

    for inst in module.iter_instances():
        my_stage = stage_of[inst.name]
        new_inputs = {}
        for pin, net in inst.inputs.items():
            renamed = out_rename.get(net, net)
            hops = my_stage - source_stage[renamed]
            if hops < 0:
                raise PipelineError(
                    f"balanced stage map inverts net {net} into {inst.name}"
                )
            new_inputs[pin] = delayed(renamed, hops)
        new_outputs = {
            pin: out_rename.get(net, net)
            for pin, net in inst.outputs.items()
        }
        piped.add_instance(
            inst.name, inst.cell_name,
            inputs=new_inputs, outputs=new_outputs,
            **dict(inst.attributes),
        )

    for port in module.outputs():
        pre = out_rename[port]
        hops = (stages - 1) - source_stage[pre]
        tapped = delayed(pre, hops) if hops > 0 else pre
        piped.add_output(port)
        piped.add_instance(
            f"pout_{port}", seq_cell.name,
            inputs={"D": tapped, clock_pin: clk},
            outputs={seq_cell.output: port},
        )
        count[0] += 1

    piped.assert_well_formed()
    # Per-stage unit-delay depth (longest same-stage gate chain).
    graph = instance_graph(module)
    depths = [0] * stages
    depth_in_stage: dict[str, int] = {}
    for name in graph.topological_order():
        same = [
            depth_in_stage[p]
            for p in graph.predecessors(name)
            if stage_of[p] == stage_of[name]
        ]
        depth_in_stage[name] = 1 + max(same, default=0)
        depths[stage_of[name]] = max(
            depths[stage_of[name]], depth_in_stage[name]
        )
    return PipelineReport(
        module=piped,
        stages=stages,
        registers_added=count[0],
        latency_cycles=stages + 1,
        stage_depths=tuple(max(1, d) for d in depths),
    )
