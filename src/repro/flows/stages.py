"""The stage bodies, graph parts and result finalizer every style shares.

A style's stage graph (:mod:`repro.flows.asic_flow`,
:mod:`repro.flows.structured`, :mod:`repro.flows.custom`) meets one
artifact contract:

* ``map`` writes ``module``, ``library``, ``stages`` and ``clock``;
* ``sta`` writes the cycle as two numbers, ``period_ps`` and
  ``logic_ps`` (the combinational part of it);
* ``quote`` writes ``quoted``, the frequency the style sells.

:func:`finalize` builds every :class:`FlowResult` from those artifacts,
so the gap decomposition reads one derivation of each field whatever
the style.  The bodies here are what the styles have in common; a style
module keeps only what differs (its library, clock, placer and quote).
"""

from __future__ import annotations

from repro.flows.engine import FlowContext, Stage, StageGraph
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
from repro.sta.sequential import register_boundaries
from repro.tech.process import ProcessTechnology
from repro.variation.binning import asic_worst_case_quote, speed_tested_quote
from repro.variation.components import MATURE_PROCESS
from repro.variation.montecarlo import sample_chip_speeds

#: What ``size`` and ``sta`` time: the netlist as placed and clocked.
TIMING_INPUTS = ("module", "library", "clock", "wire")


def map_netlist(ctx: FlowContext, comb, library, clock, stages: int,
                use_latches: bool = False) -> None:
    """Register (and with ``stages > 1`` pipeline) a workload netlist."""
    if stages > 1:
        report = pipeline_module(comb, library, stages,
                                 use_latches=use_latches)
        module = report.module
        stages = report.stages
    else:
        module = register_boundaries(comb, library, use_latches=use_latches)
        stages = 1
    ctx["library"] = library
    ctx["module"] = module
    ctx["stages"] = stages
    ctx["clock"] = clock
    ctx.span.set(cells=module.instance_count(), stages=stages,
                 library=library.name)


def place_cells(ctx: FlowContext, quality: str) -> None:
    """Continuous placement; writes the parasitics it extracts."""
    placement = place(ctx["module"], ctx["library"], quality=quality,
                      seed=ctx.options.seed)
    ctx["wire"] = placement.parasitics(ctx["library"])
    wirelength = placement.total_wirelength_um()
    ctx.notes["wirelength_um"] = wirelength
    ctx.span.set(quality=quality, wirelength_um=wirelength)


def recover_place(ctx: FlowContext) -> None:
    # Continuing without parasitics: downstream stages read wire=None,
    # and the finalizer falls back to cell area with no fabric bought.
    ctx.notes["wirelength_um"] = 0.0


def buffer_fanout(ctx: FlowContext) -> None:
    """Buffer high-fanout nets when the library has a BUF."""
    library = ctx["library"]
    if library.has_base("BUF"):
        buffered = buffer_high_fanout(ctx["module"], library, max_fanout=10)
        ctx.notes["buffers_added"] = float(buffered.buffers_added)
        ctx.span.set(buffers_added=buffered.buffers_added)


def stage_cts(ctx: FlowContext) -> None:
    buffer_fanout(ctx)
    ctx.span.set(skew_fraction=ctx["clock"].skew_fraction)


def _timing_inputs(ctx: FlowContext) -> tuple:
    return ctx["module"], ctx["library"], ctx.get("wire")


def stage_size(ctx: FlowContext) -> None:
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


def stage_sta(ctx: FlowContext) -> None:
    """The guarded period solve of the context netlist, as the cycle pair.

    It starts from the propagated timing ``size`` handed over when that
    stage ran in this process on these very objects; otherwise (a cached,
    resumed, failed or object-engine ``size``) it compiles afresh.
    """
    inputs, state = ctx.handover.pop("timing", ((), None))
    if not all(a is b for a, b in zip(inputs, _timing_inputs(ctx))):
        state = None
    timing = guarded_solve_min_period(
        ctx["module"], ctx["library"], ctx["clock"], wire=ctx.get("wire"),
        use_array=ctx.options.use_array,
        check_array=ctx.options.check_array, state=state,
    )
    ctx["period_ps"] = timing.min_period_ps
    ctx["logic_ps"] = timing.logic_delay_ps
    ctx.span.set(min_period_ps=timing.min_period_ps)


def recover_sta(ctx: FlowContext) -> None:
    ctx["period_ps"], ctx["logic_ps"] = fallback_timing(
        ctx["module"], ctx["library"], ctx["clock"]
    )


def stage_quote(ctx: FlowContext) -> None:
    """Quote mature-process silicon: speed-tested or worst-case corner."""
    typical_mhz = 1.0e6 / ctx["period_ps"]
    dist = sample_chip_speeds(typical_mhz, MATURE_PROCESS,
                              count=4000, seed=ctx.options.seed)
    if ctx.options.speed_test:
        quoted = speed_tested_quote(dist)
        ctx.notes["quote_method"] = 1.0  # 1 = speed tested
    else:
        quoted = asic_worst_case_quote(dist)
        ctx.notes["quote_method"] = 0.0  # 0 = worst-case corner
    ctx["quoted"] = quoted
    ctx.span.set(quoted_mhz=quoted)


def recover_quote(ctx: FlowContext) -> None:
    ctx["quoted"] = 1.0e6 / ctx["period_ps"]
    ctx.notes["quote_method"] = -1.0  # -1 = quote stage degraded


def size_stage(outputs: tuple[str, ...] = ("module",)) -> Stage:
    """The ``size`` stage declaration every style shares."""
    return Stage(name="size", run=stage_size, inputs=TIMING_INPUTS,
                 outputs=outputs, params=("sizing_moves",))


def sta_stage(run=stage_sta, params: tuple[str, ...] = ()) -> Stage:
    """The ``sta`` stage declaration every style shares."""
    return Stage(name="sta", run=run, inputs=TIMING_INPUTS,
                 outputs=("period_ps", "logic_ps"), params=params,
                 recover=recover_sta)


def quote_stage(run=stage_quote,
                params: tuple[str, ...] = ("speed_test", "seed")) -> Stage:
    """The ``quote`` stage declaration every style shares."""
    return Stage(name="quote", run=run, inputs=("period_ps",),
                 outputs=("quoted",), params=params, recover=recover_quote)


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


def _root_attrs(ctx: FlowContext) -> dict:
    return {"workload": ctx.options.workload, "bits": ctx.options.bits}


def style_graph(flow: str, stages: tuple[Stage, ...]) -> StageGraph:
    """A style's stage graph with the shared hooks and span attributes."""
    return StageGraph(flow=flow, stages=stages,
                      hooks={"cts": _preflight_hook},
                      root_attrs=_root_attrs, summary_attrs=_summary_attrs)


def finalize(ctx: FlowContext, tech: ProcessTechnology) -> FlowResult:
    """Build the result record of any style from its completed context.

    Area is the master bought (``fabric.die_area_um2``) when the context
    holds a fabric -- the structured cost model -- and the cells' total
    area otherwise.
    """
    options = ctx.options
    module = ctx["module"]
    period_ps = ctx["period_ps"]
    logic_ps = ctx["logic_ps"]
    fabric = ctx.get("fabric")
    return FlowResult(
        name=f"{ctx.flow}_{options.workload}{options.bits}"
             f"_s{ctx['stages']}",
        style=ctx.flow,
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
        area_um2=(fabric.die_area_um2 if fabric is not None
                  else total_area_um2(module, ctx["library"])),
        notes=ctx.notes,
        diagnostics=ctx.diagnostics,
        stage_records=ctx.stage_records,
    )
