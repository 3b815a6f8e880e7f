"""The custom implementation flow, as a stage composition on the engine.

The full-custom methodology of the paper's Sections 4-8, with every lever
pulled: a short-Leff custom process, deeper pipelining, continuous
transistor sizing, hand-quality (careful, annealed) placement, a 5%-skew
hand-balanced clock with latch-based time borrowing available, domino
logic on the critical path, and flagship-bin silicon instead of a
worst-case quote.

Like :mod:`repro.flows.asic`, the flow is a declarative
:class:`~repro.flows.engine.StageGraph` (:func:`custom_flow_graph`);
instrumentation, degradation, fingerprint caching and checkpoint/resume
come from the shared engine.

Failure policy mirrors the ASIC flow: ``on_error="raise"`` aborts with a
stage-tagged :class:`FlowError`; ``on_error="keep_going"`` records
failures into ``FlowResult.diagnostics`` and degrades.
"""

from __future__ import annotations

from repro.cells.builder import custom_library
from repro.circuit.families import DOMINO_PROFILE
from repro.flows.asic import WORKLOADS
from repro.flows.engine import FlowContext, Stage, StageGraph
from repro.flows.options import CustomFlowOptions
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
from repro.sta.clocking import custom_clock
from repro.sta.engine import solve_min_period
from repro.sta.sequential import register_boundaries
from repro.tech.process import CMOS250_CUSTOM, ProcessTechnology
from repro.variation.binning import custom_flagship_frequency
from repro.variation.components import NEW_PROCESS
from repro.variation.montecarlo import sample_chip_speeds


def _stages_for_target(
    comb,
    library,
    tech: ProcessTechnology,
    target_fo4: float,
    use_latches: bool,
    use_domino: bool,
) -> int:
    """Stage count landing the cycle near a target FO4 depth.

    A quick unplaced STA measures the total combinational depth; the
    per-stage sequencing budget (register overhead plus the skew share)
    then fixes how many slices fit.
    """
    probe = register_boundaries(comb, library, use_latches=use_latches)
    clock = custom_clock(40.0 * tech.fo4_delay_ps)
    timing = solve_min_period(probe, library, clock)
    logic_fo4 = timing.logic_delay_ps / tech.fo4_delay_ps
    if use_domino:
        logic_fo4 /= DOMINO_PROFILE.combinational_speedup
    overhead_fo4 = (
        timing.min_period_ps - timing.logic_delay_ps
    ) / tech.fo4_delay_ps
    usable = max(target_fo4 - overhead_fo4, 1.0)
    return max(1, min(10, round(logic_fo4 / usable)))


def _stage_map(ctx: FlowContext) -> None:
    options = ctx.options
    library = custom_library(ctx.tech)
    comb = WORKLOADS[options.workload](options.bits, library)

    stages_wanted = options.pipeline_stages
    if options.target_cycle_fo4 is not None:
        try:
            stages_wanted = _stages_for_target(
                comb, library, ctx.tech, options.target_cycle_fo4,
                options.use_latches, options.use_domino,
            )
        except Exception as exc:
            # The probe is an optimisation, not a requirement: under
            # keep_going fall back to the fixed stage count instead of
            # losing the whole flow.
            if not ctx.keep_going:
                raise
            ctx.note(
                f"stage-count probe failed "
                f"({type(exc).__name__}: {exc}); using fixed "
                f"pipeline_stages={options.pipeline_stages}",
                hint="check target_cycle_fo4 and the library",
            )

    if stages_wanted > 1:
        report = pipeline_module(
            comb, library, stages_wanted,
            use_latches=options.use_latches,
        )
        module = report.module
        stages = report.stages
    else:
        module = register_boundaries(
            comb, library, use_latches=options.use_latches
        )
        stages = 1
    ctx["library"] = library
    ctx["module"] = module
    ctx["stages"] = stages
    ctx["clock"] = custom_clock(20.0 * ctx.tech.fo4_delay_ps)
    ctx.span.set(cells=module.instance_count(), stages=stages,
                 library=library.name)


def _stage_place(ctx: FlowContext) -> None:
    placement = place(
        ctx["module"], ctx["library"], quality="careful",
        seed=ctx.options.seed,
    )
    ctx["placement"] = placement
    ctx["wire"] = placement.parasitics(ctx["library"])
    wirelength = placement.total_wirelength_um()
    ctx.notes["wirelength_um"] = wirelength
    ctx.span.set(wirelength_um=wirelength)


def _recover_place(ctx: FlowContext) -> None:
    ctx.notes["wirelength_um"] = 0.0


def _stage_cts(ctx: FlowContext) -> None:
    clock = ctx["clock"]
    buffered = buffer_high_fanout(ctx["module"], ctx["library"],
                                  max_fanout=10)
    ctx.notes["buffers_added"] = float(buffered.buffers_added)
    ctx.span.set(buffers_added=buffered.buffers_added,
                 skew_fraction=clock.skew_fraction)


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
    options = ctx.options
    timing = guarded_solve_min_period(
        ctx["module"], ctx["library"], ctx["clock"], wire=ctx.get("wire"),
        use_array=options.use_array, check_array=options.check_array,
    )
    period_ps = timing.min_period_ps
    logic_ps = timing.logic_delay_ps

    if options.use_domino:
        # Domino accelerates the combinational portion only; registers,
        # skew and wires keep their cost (Section 7.1's dilution from
        # 50-100% combinational to ~50% sequential).  The speedup
        # constant is the family profile, itself validated against
        # gate-level domino mappings in the test suite and bench E9.
        domino_factor = DOMINO_PROFILE.combinational_speedup
        period_ps = period_ps - logic_ps + logic_ps / domino_factor
        logic_ps = logic_ps / domino_factor
        ctx.notes["domino_factor"] = domino_factor
    ctx["period_ps"] = period_ps
    ctx["logic_ps"] = logic_ps
    ctx.span.set(min_period_ps=period_ps)


def _recover_sta(ctx: FlowContext) -> None:
    degraded = fallback_timing(ctx["module"], ctx["library"], ctx["clock"])
    ctx["period_ps"] = degraded.min_period_ps
    ctx["logic_ps"] = degraded.logic_delay_ps


def _stage_quote(ctx: FlowContext) -> None:
    options = ctx.options
    typical_mhz = 1.0e6 / ctx["period_ps"]
    dist = sample_chip_speeds(typical_mhz, NEW_PROCESS, count=4000,
                              seed=options.seed)
    if options.flagship_silicon:
        quoted = custom_flagship_frequency(dist)
        ctx.notes["quote_method"] = 2.0  # 2 = flagship bin
    else:
        quoted = dist.median_mhz
        ctx.notes["quote_method"] = 3.0  # 3 = typical silicon
    ctx["quoted"] = quoted
    ctx.span.set(quoted_mhz=quoted)


def _recover_quote(ctx: FlowContext) -> None:
    ctx["quoted"] = 1.0e6 / ctx["period_ps"]
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
    if "period_ps" in ctx:
        attrs["min_period_ps"] = ctx["period_ps"]
    if "quoted" in ctx:
        attrs["quoted_mhz"] = ctx["quoted"]
    return attrs


def custom_flow_graph() -> StageGraph:
    """The custom flow's declarative stage graph."""
    return StageGraph(
        flow="custom",
        stages=(
            Stage(
                name="map", run=_stage_map, critical=True,
                outputs=("module", "library", "stages", "clock"),
                params=("workload", "bits", "pipeline_stages",
                        "target_cycle_fo4", "use_latches", "use_domino"),
            ),
            Stage(
                name="place", run=_stage_place,
                inputs=("module", "library"),
                outputs=("placement", "wire"),
                params=("seed",),
                recover=_recover_place,
            ),
            Stage(
                name="cts", run=_stage_cts,
                inputs=("module", "library", "clock"),
                # Buffer insertion synthesises exactly-sized BUF cells
                # through the continuous factory, so the library is
                # rewritten alongside the netlist.
                outputs=("module", "library"),
            ),
            Stage(
                name="size", run=_stage_size,
                inputs=("module", "library", "clock", "wire"),
                # Continuous sizing registers freshly generated drive
                # variants in the library, so the library is rewritten
                # here too -- a cache replay must restore both.
                outputs=("module", "library"),
                params=("sizing_moves",),
            ),
            Stage(
                name="sta", run=_stage_sta,
                inputs=("module", "library", "clock", "wire"),
                outputs=("period_ps", "logic_ps"),
                params=("use_domino",),
                recover=_recover_sta,
            ),
            Stage(
                name="quote", run=_stage_quote,
                inputs=("period_ps",),
                outputs=("quoted",),
                params=("flagship_silicon", "seed"),
                recover=_recover_quote,
            ),
        ),
        hooks={"cts": _preflight_hook},
        root_attrs=lambda ctx: {"workload": ctx.options.workload,
                                "bits": ctx.options.bits},
        summary_attrs=_summary_attrs,
    )


#: Module-level graph instance the flow entry point and the CLI share.
CUSTOM_GRAPH = custom_flow_graph()


def finalize_custom(ctx: FlowContext,
                    tech: ProcessTechnology) -> FlowResult:
    """Build the result record from a completed custom flow context."""
    options = ctx.options
    module = ctx["module"]
    period_ps = ctx["period_ps"]
    logic_ps = ctx["logic_ps"]
    return FlowResult(
        name=f"custom_{options.workload}{options.bits}_s{ctx['stages']}",
        style="custom",
        technology=tech,
        library_name=ctx["library"].name,
        typical_frequency_mhz=1.0e6 / period_ps,
        quoted_frequency_mhz=ctx["quoted"],
        min_period_ps=period_ps,
        fo4_depth=period_ps / tech.fo4_delay_ps,
        logic_fo4=logic_ps / tech.fo4_delay_ps,
        overhead_fraction=1.0 - logic_ps / period_ps,
        pipeline_stages=ctx["stages"],
        gate_count=module.instance_count(),
        area_um2=total_area_um2(module, ctx["library"]),
        notes=ctx.notes,
        diagnostics=ctx.diagnostics,
        stage_records=ctx.stage_records,
    )


def _cli_options(args, on_error: str) -> CustomFlowOptions:
    """Build custom options from parsed ``flow`` subcommand arguments."""
    return CustomFlowOptions(
        workload=args.workload or "alu_macro",
        bits=args.bits,
        pipeline_stages=args.stages,
        target_cycle_fo4=args.target_fo4,
        sizing_moves=args.sizing_moves,
        seed=args.seed,
        on_error=on_error,
        fault=args.inject_fault,
        use_array=not args.no_array,
        check_array=args.check_array,
    )


def _gap_options(bits: int, sizing_moves: int, target_fo4: float,
                 on_error: str) -> CustomFlowOptions:
    """The custom design point the ``gap`` comparison runs."""
    return CustomFlowOptions(bits=bits, target_cycle_fo4=target_fo4,
                             sizing_moves=sizing_moves, on_error=on_error)


#: The registered custom backend (also importable for direct engine use).
CUSTOM_BACKEND = register_backend(Backend(
    name="custom",
    graph=CUSTOM_GRAPH,
    options_cls=CustomFlowOptions,
    default_tech=CMOS250_CUSTOM,
    finalize=finalize_custom,
    default_workload="alu_macro",
    description="full-custom flow: short-Leff process, continuous "
                "sizing, domino, flagship silicon",
    cli_options=_cli_options,
    gap_options=_gap_options,
))


def run_custom_flow(
    options: CustomFlowOptions = CustomFlowOptions(),
    tech: ProcessTechnology = CMOS250_CUSTOM,
    checkpoint: str | None = None,
    resume: bool = False,
    from_stage: str | None = None,
) -> FlowResult:
    """Run the full custom flow and return its result record.

    Args:
        options: flow knobs.
        tech: process technology.
        checkpoint: snapshot the context here after every stage.
        resume: restore completed stages from ``checkpoint``.
        from_stage: with ``resume``, re-run from this stage onward.

    Raises:
        FlowError: for unknown workloads or -- under
            ``on_error="raise"`` -- any stage failure (with the stage
            name attached and the cause chained).
    """
    return run_backend_flow(
        CUSTOM_BACKEND, options, tech, checkpoint=checkpoint, resume=resume,
        from_stage=from_stage,
    )
