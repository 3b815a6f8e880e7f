"""The ASIC implementation flow's stages, graph and backend registration.

The standard-cell methodology as the paper describes it: RTL-ish entry,
mapping onto a fixed library, automatic placement, discrete post-layout
sizing, a synthesised (10%-class) clock tree, and -- crucially, Section 8
-- a worst-case-corner frequency quote rather than typical-silicon
performance.  Every lever the paper says ASICs lack is an option here so
the benchmarks can turn them on one at a time and price them.

The flow itself is a declarative :class:`~repro.flows.engine.StageGraph`
(:func:`asic_flow_graph`) run by the shared
:class:`~repro.flows.engine.FlowEngine`: span instrumentation,
``keep_going`` degradation, fingerprint caching and checkpoint/resume
all come from the engine, so this module only declares what each stage
reads, writes and computes.  The workload table and the flow's public
names live in the light :mod:`repro.flows.asic`; this module loads with
the ``asic`` backend (:mod:`repro.flows.registry`), together with every
module a flow runs.

Failure policy: with the default ``on_error="raise"`` any stage failure
surfaces as a :class:`FlowError` naming the stage and chaining the root
cause; with ``on_error="keep_going"`` failed stages are recorded into
``FlowResult.diagnostics`` and the flow continues on best-effort
fallbacks (the per-stage ``recover`` hooks below).
"""

from __future__ import annotations

from repro.cells.builder import poor_asic_library, rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.flows.engine import FlowContext, Stage, StageGraph
from repro.flows.options import AsicFlowOptions
from repro.flows.registry import Backend, register_backend, run_backend_flow
from repro.flows.results import FlowResult
from repro.physical.placement import place
from repro.pipeline.pipeliner import pipeline_module
from repro.robust.degrade import StageRunner, fallback_timing
from repro.robust.guards import (
    guarded_size_for_speed,
    guarded_solve_min_period,
)
from repro.robust.validate import preflight
from repro.sizing.buffering import buffer_high_fanout
from repro.sizing.tilos import total_area_um2
from repro.sta.clocking import asic_clock
from repro.sta.engine import TimingReport
from repro.sta.fo4 import fo4_depth, fo4_logic_depth
from repro.sta.sequential import register_boundaries
from repro.tech.process import CMOS250_ASIC, ProcessTechnology
from repro.variation.binning import asic_worst_case_quote, speed_tested_quote
from repro.variation.components import MATURE_PROCESS
from repro.variation.montecarlo import sample_chip_speeds


def _stage_map(ctx: FlowContext) -> None:
    options = ctx.options
    library = (
        rich_asic_library(ctx.tech)
        if options.rich_library
        else poor_asic_library(ctx.tech)
    )
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
    ctx["clock"] = asic_clock(20.0 * ctx.tech.fo4_delay_ps)
    ctx.span.set(cells=module.instance_count(), stages=stages,
                 library=library.name)


def _stage_place(ctx: FlowContext) -> None:
    options = ctx.options
    quality = "careful" if options.careful_placement else "sloppy"
    placement = place(
        ctx["module"], ctx["library"], quality=quality, seed=options.seed
    )
    ctx["wire"] = placement.parasitics(ctx["library"])
    wirelength = placement.total_wirelength_um()
    ctx.notes["wirelength_um"] = wirelength
    ctx.span.set(quality=quality, wirelength_um=wirelength)


def _recover_place(ctx: FlowContext) -> None:
    # Continuing without parasitics: downstream stages read wire=None.
    ctx.notes["wirelength_um"] = 0.0


def _stage_cts(ctx: FlowContext) -> None:
    library = ctx["library"]
    clock = ctx["clock"]
    if library.has_base("BUF"):
        buffered = buffer_high_fanout(ctx["module"], library, max_fanout=10)
        ctx.notes["buffers_added"] = float(buffered.buffers_added)
        ctx.span.set(buffers_added=buffered.buffers_added)
    ctx.span.set(skew_fraction=clock.skew_fraction)


def _timing_inputs(ctx: FlowContext) -> tuple:
    return ctx["module"], ctx["library"], ctx.get("wire")


def _stage_size(ctx: FlowContext) -> None:
    """TILOS under the budget, replaying (and extending) the trajectory
    the stage cache holds for this netlist under any budget."""
    options = ctx.options
    if options.sizing_moves > 0:
        cache, key, known = ctx.cache, None, None
        if cache is not None:
            key = ctx.stage_key("sizing_moves")
            known = cache.get_trajectory(key)
        sizing = guarded_size_for_speed(
            ctx["module"], ctx["library"], ctx["clock"],
            wire=ctx.get("wire"), max_moves=options.sizing_moves,
            use_array=options.use_array, check_array=options.check_array,
            replay=known,
        )
        if cache is not None and sizing.trajectory is not known:
            cache.put_trajectory(key, sizing.trajectory)
        ctx.notes["sizing_moves"] = float(sizing.moves)
        ctx.notes["sizing_speedup"] = sizing.speedup
        ctx.span.set(moves=sizing.moves, speedup=sizing.speedup,
                     area_growth=sizing.area_growth,
                     replayed_moves=sizing.replayed_moves)
        if sizing.array_state is not None:
            ctx.handover["timing"] = (_timing_inputs(ctx),
                                      sizing.array_state)


def _solve_timing(ctx: FlowContext) -> TimingReport:
    """The ``sta`` stages' guarded period solve of the context netlist.

    It starts from the propagated timing ``size`` handed over when that
    stage ran in this process on these very objects; otherwise (a cached,
    resumed, failed or object-engine ``size``) it compiles afresh.
    """
    inputs, state = ctx.handover.pop("timing", ((), None))
    if not all(a is b for a, b in zip(inputs, _timing_inputs(ctx))):
        state = None
    return guarded_solve_min_period(
        ctx["module"], ctx["library"], ctx["clock"], wire=ctx.get("wire"),
        use_array=ctx.options.use_array,
        check_array=ctx.options.check_array, state=state,
    )


def _stage_sta(ctx: FlowContext) -> None:
    timing = _solve_timing(ctx)
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
    # Pre-flight lint after buffering (so fanout findings are real, not
    # about-to-be-fixed) but before sizing/STA.
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


def asic_flow_graph() -> StageGraph:
    """The ASIC flow's declarative stage graph."""
    return StageGraph(
        flow="asic",
        stages=(
            Stage(
                name="map", run=_stage_map, critical=True,
                outputs=("module", "library", "stages", "clock"),
                params=("workload", "bits", "pipeline_stages",
                        "rich_library"),
            ),
            Stage(
                name="place", run=_stage_place,
                inputs=("module", "library"),
                outputs=("wire",),
                params=("careful_placement", "seed"),
                recover=_recover_place,
            ),
            Stage(
                name="cts", run=_stage_cts,
                inputs=("module", "library", "clock"),
                outputs=("module",),
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
ASIC_GRAPH = asic_flow_graph()


def finalize_asic(ctx: FlowContext,
                  tech: ProcessTechnology) -> FlowResult:
    """Build the result record from a completed ASIC flow context."""
    options = ctx.options
    module = ctx["module"]
    timing = ctx["timing"]
    return FlowResult(
        name=f"asic_{options.workload}{options.bits}_s{ctx['stages']}",
        style="asic",
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
        area_um2=total_area_um2(module, ctx["library"]),
        notes=ctx.notes,
        diagnostics=ctx.diagnostics,
        stage_records=ctx.stage_records,
    )


#: The registered ASIC backend (also importable for direct engine use).
ASIC_BACKEND = register_backend(Backend(
    name="asic",
    graph=ASIC_GRAPH,
    options_cls=AsicFlowOptions,
    default_tech=CMOS250_ASIC,
    finalize=finalize_asic,
    description="standard-cell flow: discrete sizing, synthesised CTS, "
                "worst-case quote",
))


def run_asic_flow(
    options: AsicFlowOptions = AsicFlowOptions(),
    tech: ProcessTechnology = CMOS250_ASIC,
    checkpoint: str | None = None,
    resume: bool = False,
    from_stage: str | None = None,
) -> FlowResult:
    """Run the full ASIC flow and return its result record.

    Args:
        options: flow knobs.
        tech: process technology.
        checkpoint: snapshot the context here after every stage.
        resume: restore completed stages from ``checkpoint``.
        from_stage: with ``resume``, re-run from this stage onward.

    Raises:
        FlowError: for unknown workloads, inconsistent options, or --
            under ``on_error="raise"`` -- any stage failure (with the
            stage name attached and the cause chained).
    """
    return run_backend_flow(
        ASIC_BACKEND, options, tech, checkpoint=checkpoint, resume=resume,
        from_stage=from_stage,
    )
