"""The structured-ASIC implementation flow: the gap's middle ground.

The paper frames a 3-8x spectrum between a default ASIC methodology and
full custom.  Structured ASICs -- prefabricated slot-grid masters where
only the personalisation metal is design-specific -- sit between the
endpoints, and this flow prices exactly where: it keeps the ASIC's
standard-cell library and discrete sizing, but swaps continuous
placement for slot assignment on a :class:`~repro.physical.fabric.Fabric`
(buying prefab die area for reduced NRE), inherits the master's
characterised H-tree (8%-class skew, between the 10% ASIC and 5% custom
budgets of Section 4.1), pipelines moderately (2 stages by default),
and quotes at-speed-tested bins rather than the worst-case corner --
structured vendors test the personalised parts (Section 8.3's lever,
already pulled).

Like its siblings, the flow is a declarative stage graph run by the
shared engine and registered in :mod:`repro.flows.registry`; caching,
checkpoint/resume, ``keep_going`` degradation and ledger records come
for free.  It shares the ASIC's sizing, ``sta`` and quote bodies and the
one result finalizer (:mod:`repro.flows.stages`); what is its own is
slot assignment on the fabric, the master's clock tree in ``cts``, and
an area that is the die bought rather than the cells used.
"""

from __future__ import annotations

from repro.cells.builder import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.flows.engine import FlowContext, Stage, StageGraph
from repro.flows.options import StructuredFlowOptions
from repro.flows.registry import Backend, register_backend, run_backend_flow
from repro.flows.results import FlowResult
from repro.flows.stages import (
    buffer_fanout,
    map_netlist,
    quote_stage,
    recover_place,
    size_stage,
    sta_stage,
    style_graph,
)
from repro.physical.clocktree import structured_clock_tree
from repro.physical.fabric import assign_slots, fabric_for
from repro.sta.clocking import (
    ASIC_SKEW_FRACTION,
    STRUCTURED_SKEW_FRACTION,
    Clock,
    structured_clock,
)
from repro.tech.process import CMOS250_ASIC, ProcessTechnology


def _stage_map(ctx: FlowContext) -> None:
    options = ctx.options
    # Structured masters are personalised from the vendor's full cell
    # menu; there is no impoverished-library variant to fall back to.
    library = rich_asic_library(ctx.tech)
    comb = WORKLOADS[options.workload](options.bits, library)
    map_netlist(ctx, comb, library,
                structured_clock(20.0 * ctx.tech.fo4_delay_ps),
                options.pipeline_stages)


def _stage_place(ctx: FlowContext) -> None:
    options = ctx.options
    module = ctx["module"]
    library = ctx["library"]
    fabric = fabric_for(module, library,
                        utilization=options.fabric_utilization)
    assignment = assign_slots(
        module, library, fabric, seed=options.seed,
        refine=options.careful_assignment,
    )
    ctx["fabric"] = fabric
    ctx["wire"] = assignment.parasitics(library)
    wirelength = assignment.total_wirelength_um()
    ctx.notes["wirelength_um"] = wirelength
    ctx.notes["fabric_utilization"] = assignment.utilization.overall
    ctx.notes["fabric_slots"] = float(fabric.slot_count)
    ctx.notes["detour_factor"] = assignment.detour_factor
    ctx.span.set(fabric=f"{fabric.rows}x{fabric.cols}",
                 utilization=assignment.utilization.overall,
                 wirelength_um=wirelength)


def _stage_cts(ctx: FlowContext) -> None:
    buffer_fanout(ctx)
    fabric = ctx.get("fabric")
    if fabric is not None:
        # Skew comes from the master's geometry -- the prefab tree spans
        # the whole die and taps every sequential site -- clamped to the
        # characterised 8%-class budget (never worse than a synthesised
        # ASIC tree: the master was tuned once, for every design).
        clock = ctx["clock"]
        tree = structured_clock_tree(ctx.tech, fabric)
        fraction = min(
            ASIC_SKEW_FRACTION,
            max(STRUCTURED_SKEW_FRACTION,
                tree.skew_ps / clock.period_ps),
        )
        ctx["clock"] = Clock(
            name=clock.name,
            period_ps=clock.period_ps,
            skew_ps=fraction * clock.period_ps,
        )
        ctx.notes["clock_tree_skew_ps"] = tree.skew_ps
        ctx.notes["clock_wirelength_um"] = tree.wirelength_um
    ctx.span.set(skew_fraction=ctx["clock"].skew_fraction)


def structured_flow_graph() -> StageGraph:
    """The structured-ASIC flow's declarative stage graph."""
    return style_graph("structured", (
        Stage(
            name="map", run=_stage_map, critical=True,
            outputs=("module", "library", "stages", "clock"),
            params=("workload", "bits", "pipeline_stages"),
        ),
        Stage(
            name="place", run=_stage_place,
            inputs=("module", "library"),
            outputs=("wire", "fabric"),
            params=("fabric_utilization", "careful_assignment", "seed"),
            recover=recover_place,
        ),
        Stage(
            name="cts", run=_stage_cts,
            # The fabric sizes the prefab clock tree, so it feeds
            # this stage's fingerprint like any other input.
            inputs=("module", "library", "clock", "fabric"),
            outputs=("module", "clock"),
        ),
        size_stage(),
        sta_stage(),
        quote_stage(),
    ))


#: Module-level graph instance the flow entry point and the CLI share.
STRUCTURED_GRAPH = structured_flow_graph()


#: The registered structured backend.
STRUCTURED_BACKEND = register_backend(Backend(
    name="structured",
    graph=STRUCTURED_GRAPH,
    options_cls=StructuredFlowOptions,
    default_tech=CMOS250_ASIC,
    description="structured-ASIC flow: prefab slot fabric, characterised "
                "H-tree, bin-tested quote",
))


def run_structured_flow(
    options: StructuredFlowOptions = StructuredFlowOptions(),
    tech: ProcessTechnology = CMOS250_ASIC,
    checkpoint: str | None = None,
    resume: bool = False,
    from_stage: str | None = None,
) -> FlowResult:
    """Run the full structured-ASIC flow and return its result record.

    Args:
        options: flow knobs.
        tech: process technology (the structured master is fabbed on the
            ASIC process; only the methodology differs).
        checkpoint: snapshot the context here after every stage.
        resume: restore completed stages from ``checkpoint``.
        from_stage: with ``resume``, re-run from this stage onward.

    Raises:
        FlowError: for unknown workloads or -- under
            ``on_error="raise"`` -- any stage failure.
    """
    return run_backend_flow(
        STRUCTURED_BACKEND, options, tech, checkpoint=checkpoint,
        resume=resume, from_stage=from_stage,
    )
