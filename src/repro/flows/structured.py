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
for free.
"""

from __future__ import annotations

from repro.cells.builder import rich_asic_library
from repro.flows.engine import FlowContext, Stage, StageGraph
from repro.flows.options import StructuredFlowOptions
from repro.flows.registry import Backend, register_backend, run_backend_flow
from repro.flows.results import FlowResult
from repro.physical.clocktree import structured_clock_tree
from repro.physical.fabric import assign_slots, fabric_for
from repro.pipeline.pipeliner import pipeline_module
from repro.robust.degrade import StageRunner, fallback_timing
from repro.robust.guards import (
    guarded_size_for_speed,
    guarded_solve_min_period,
)
from repro.robust.validate import preflight
from repro.sizing.buffering import buffer_high_fanout
from repro.sizing.tilos import total_area_um2
from repro.sta.clocking import (
    ASIC_SKEW_FRACTION,
    STRUCTURED_SKEW_FRACTION,
    Clock,
    structured_clock,
)
from repro.sta.fo4 import fo4_depth, fo4_logic_depth
from repro.sta.sequential import register_boundaries
from repro.tech.process import CMOS250_ASIC, ProcessTechnology
from repro.variation.binning import asic_worst_case_quote, speed_tested_quote
from repro.variation.components import MATURE_PROCESS
from repro.variation.montecarlo import sample_chip_speeds


def _stage_map(ctx: FlowContext) -> None:
    from repro.flows.asic import WORKLOADS

    options = ctx.options
    # Structured masters are personalised from the vendor's full cell
    # menu; there is no impoverished-library variant to fall back to.
    library = rich_asic_library(ctx.tech)
    comb = WORKLOADS[options.workload](options.bits, library)

    if options.pipeline_stages > 1:
        report = pipeline_module(comb, library, options.pipeline_stages)
        module = report.module
        stages = report.stages
    else:
        module = register_boundaries(comb, library)
        stages = 1
    ctx["library"] = library
    ctx["module"] = module
    ctx["stages"] = stages
    ctx["clock"] = structured_clock(20.0 * ctx.tech.fo4_delay_ps)
    ctx.span.set(cells=module.instance_count(), stages=stages,
                 library=library.name)


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
    ctx["placement"] = assignment
    ctx["wire"] = assignment.parasitics(library)
    wirelength = assignment.total_wirelength_um()
    ctx.notes["wirelength_um"] = wirelength
    ctx.notes["fabric_utilization"] = assignment.utilization.overall
    ctx.notes["fabric_slots"] = float(fabric.slot_count)
    ctx.notes["detour_factor"] = assignment.detour_factor
    ctx.span.set(fabric=f"{fabric.rows}x{fabric.cols}",
                 utilization=assignment.utilization.overall,
                 wirelength_um=wirelength)


def _recover_place(ctx: FlowContext) -> None:
    # Continuing without parasitics: downstream stages read wire=None,
    # and the finalizer falls back to cell area with no fabric bought.
    ctx.notes["wirelength_um"] = 0.0


def _stage_cts(ctx: FlowContext) -> None:
    library = ctx["library"]
    clock = ctx["clock"]
    if library.has_base("BUF"):
        buffered = buffer_high_fanout(ctx["module"], library, max_fanout=10)
        ctx.notes["buffers_added"] = float(buffered.buffers_added)
        ctx.span.set(buffers_added=buffered.buffers_added)
    fabric = ctx.get("fabric")
    if fabric is not None:
        # Skew comes from the master's geometry -- the prefab tree spans
        # the whole die and taps every sequential site -- clamped to the
        # characterised 8%-class budget (never worse than a synthesised
        # ASIC tree: the master was tuned once, for every design).
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


def _stage_size(ctx: FlowContext) -> None:
    options = ctx.options
    if options.sizing_moves > 0:
        sizing = guarded_size_for_speed(
            ctx["module"], ctx["library"], ctx["clock"],
            wire=ctx.get("wire"), max_moves=options.sizing_moves,
            use_array=options.use_array, check_array=options.check_array,
        )
        ctx.notes["sizing_moves"] = float(sizing.moves)
        ctx.notes["sizing_speedup"] = sizing.speedup
        ctx.span.set(moves=sizing.moves, speedup=sizing.speedup,
                     area_growth=sizing.area_growth)


def _stage_sta(ctx: FlowContext) -> None:
    timing = guarded_solve_min_period(
        ctx["module"], ctx["library"], ctx["clock"], wire=ctx.get("wire"),
        use_array=ctx.options.use_array,
        check_array=ctx.options.check_array,
    )
    ctx["timing"] = timing
    ctx.span.set(min_period_ps=timing.min_period_ps,
                 typical_mhz=timing.max_frequency_mhz)


def _recover_sta(ctx: FlowContext) -> None:
    ctx["timing"] = fallback_timing(
        ctx["module"], ctx["library"], ctx["clock"]
    )


def _stage_quote(ctx: FlowContext) -> None:
    options = ctx.options
    typical_mhz = ctx["timing"].max_frequency_mhz
    dist = sample_chip_speeds(typical_mhz, MATURE_PROCESS,
                              count=4000, seed=options.seed)
    if options.speed_test:
        quoted = speed_tested_quote(dist)
        ctx.notes["quote_method"] = 1.0  # 1 = speed tested
    else:
        quoted = asic_worst_case_quote(dist)
        ctx.notes["quote_method"] = 0.0  # 0 = worst-case corner
    ctx["quoted"] = quoted
    ctx.span.set(quoted_mhz=quoted)


def _recover_quote(ctx: FlowContext) -> None:
    ctx["quoted"] = ctx["timing"].max_frequency_mhz
    ctx.notes["quote_method"] = -1.0  # -1 = quote stage degraded


def _preflight_hook(ctx: FlowContext, runner: StageRunner) -> None:
    if runner.keep_going and "module" in ctx:
        runner.diagnostics.extend(preflight(ctx["module"], ctx["library"]))


def _summary_attrs(ctx: FlowContext) -> dict:
    attrs: dict = {}
    if "module" in ctx:
        attrs["cells"] = ctx["module"].instance_count()
    if "timing" in ctx:
        attrs["min_period_ps"] = ctx["timing"].min_period_ps
    if "quoted" in ctx:
        attrs["quoted_mhz"] = ctx["quoted"]
    return attrs


def structured_flow_graph() -> StageGraph:
    """The structured-ASIC flow's declarative stage graph."""
    return StageGraph(
        flow="structured",
        stages=(
            Stage(
                name="map", run=_stage_map, critical=True,
                outputs=("module", "library", "stages", "clock"),
                params=("workload", "bits", "pipeline_stages"),
            ),
            Stage(
                name="place", run=_stage_place,
                inputs=("module", "library"),
                outputs=("placement", "wire", "fabric"),
                params=("fabric_utilization", "careful_assignment",
                        "seed"),
                recover=_recover_place,
            ),
            Stage(
                name="cts", run=_stage_cts,
                inputs=("module", "library", "clock"),
                outputs=("module", "clock"),
            ),
            Stage(
                name="size", run=_stage_size,
                inputs=("module", "library", "clock", "wire"),
                outputs=("module",),
                params=("sizing_moves",),
            ),
            Stage(
                name="sta", run=_stage_sta,
                inputs=("module", "library", "clock", "wire"),
                outputs=("timing",),
                recover=_recover_sta,
            ),
            Stage(
                name="quote", run=_stage_quote,
                inputs=("timing",),
                outputs=("quoted",),
                params=("speed_test", "seed"),
                recover=_recover_quote,
            ),
        ),
        hooks={"cts": _preflight_hook},
        root_attrs=lambda ctx: {"workload": ctx.options.workload,
                                "bits": ctx.options.bits},
        summary_attrs=_summary_attrs,
    )


#: Module-level graph instance the flow entry point and the CLI share.
STRUCTURED_GRAPH = structured_flow_graph()


def finalize_structured(ctx: FlowContext,
                        tech: ProcessTechnology) -> FlowResult:
    """Build the result record from a completed structured flow context.

    Area is the master bought (:attr:`Fabric.die_area_um2`), not the
    cells used -- the structured cost model.  When the place stage was
    degraded away there is no fabric; cell area is the fallback.
    """
    options = ctx.options
    module = ctx["module"]
    timing = ctx["timing"]
    fabric = ctx.get("fabric")
    area = (fabric.die_area_um2 if fabric is not None
            else total_area_um2(module, ctx["library"]))
    return FlowResult(
        name=f"structured_{options.workload}{options.bits}"
             f"_s{ctx['stages']}",
        style="structured",
        technology=tech,
        library_name=ctx["library"].name,
        typical_frequency_mhz=timing.max_frequency_mhz,
        quoted_frequency_mhz=ctx["quoted"],
        min_period_ps=timing.min_period_ps,
        fo4_depth=fo4_depth(timing, tech),
        logic_fo4=fo4_logic_depth(timing, tech),
        overhead_fraction=timing.overhead_fraction(),
        pipeline_stages=ctx["stages"],
        gate_count=module.instance_count(),
        area_um2=area,
        notes=ctx.notes,
        diagnostics=ctx.diagnostics,
        stage_records=ctx.stage_records,
    )


def _cli_options(args, on_error: str) -> StructuredFlowOptions:
    """Build structured options from parsed ``flow`` arguments.

    ``--speed-test`` is accepted but redundant: structured parts are
    bin-tested by default (the class default is already True).
    """
    return StructuredFlowOptions(
        workload=args.workload or "alu",
        bits=args.bits,
        pipeline_stages=args.stages,
        fabric_utilization=args.fabric_utilization,
        sizing_moves=args.sizing_moves,
        seed=args.seed,
        on_error=on_error,
        fault=args.inject_fault,
        use_array=not args.no_array,
        check_array=args.check_array,
    )


def _gap_options(bits: int, sizing_moves: int, target_fo4: float,
                 on_error: str) -> StructuredFlowOptions:
    """The structured design point the ``gap`` comparison runs."""
    del target_fo4  # the custom flow's knob; the fabric fixes the pipe
    return StructuredFlowOptions(bits=bits, sizing_moves=sizing_moves,
                                 on_error=on_error)


#: The registered structured backend.
STRUCTURED_BACKEND = register_backend(Backend(
    name="structured",
    graph=STRUCTURED_GRAPH,
    options_cls=StructuredFlowOptions,
    default_tech=CMOS250_ASIC,
    finalize=finalize_structured,
    default_workload="alu",
    description="structured-ASIC flow: prefab slot fabric, characterised "
                "H-tree, bin-tested quote",
    cli_options=_cli_options,
    gap_options=_gap_options,
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
