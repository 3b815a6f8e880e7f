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
all come from the engine.  The stage bodies, recover hooks and result
finalizer the styles share live in :mod:`repro.flows.stages`, so this
module only declares what is the ASIC's own: its library choice,
clock, placement quality and the graph.  The workload table and the
flow's public names live in the light :mod:`repro.flows.asic`; this
module loads with the ``asic`` backend (:mod:`repro.flows.registry`),
together with every module a flow runs.

Failure policy: with the default ``on_error="raise"`` any stage failure
surfaces as a :class:`FlowError` naming the stage and chaining the root
cause; with ``on_error="keep_going"`` failed stages are recorded into
``FlowResult.diagnostics`` and the flow continues on best-effort
fallbacks (the stages' ``recover`` hooks).
"""

from __future__ import annotations

from repro.cells.builder import poor_asic_library, rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.flows.engine import FlowContext, Stage, StageGraph
from repro.flows.options import AsicFlowOptions
from repro.flows.registry import Backend, register_backend, run_backend_flow
from repro.flows.results import FlowResult
from repro.flows.stages import (
    map_netlist,
    place_cells,
    quote_stage,
    recover_place,
    size_stage,
    sta_stage,
    stage_cts,
    style_graph,
)
from repro.sta.clocking import asic_clock
from repro.tech.process import CMOS250_ASIC, ProcessTechnology


def _stage_map(ctx: FlowContext) -> None:
    options = ctx.options
    library = (
        rich_asic_library(ctx.tech)
        if options.rich_library
        else poor_asic_library(ctx.tech)
    )
    comb = WORKLOADS[options.workload](options.bits, library)
    map_netlist(ctx, comb, library,
                asic_clock(20.0 * ctx.tech.fo4_delay_ps),
                options.pipeline_stages)


def _stage_place(ctx: FlowContext) -> None:
    place_cells(ctx, "careful" if ctx.options.careful_placement
                else "sloppy")


def asic_flow_graph() -> StageGraph:
    """The ASIC flow's declarative stage graph."""
    return style_graph("asic", (
        Stage(
            name="map", run=_stage_map, critical=True,
            outputs=("module", "library", "stages", "clock"),
            params=("workload", "bits", "pipeline_stages", "rich_library"),
        ),
        Stage(
            name="place", run=_stage_place,
            inputs=("module", "library"),
            outputs=("wire",),
            params=("careful_placement", "seed"),
            recover=recover_place,
        ),
        Stage(
            name="cts", run=stage_cts,
            inputs=("module", "library", "clock"),
            outputs=("module",),
        ),
        size_stage(),
        sta_stage(),
        quote_stage(),
    ))


#: Module-level graph instance the flow entry point and the CLI share.
ASIC_GRAPH = asic_flow_graph()


#: The registered ASIC backend (also importable for direct engine use).
ASIC_BACKEND = register_backend(Backend(
    name="asic",
    graph=ASIC_GRAPH,
    options_cls=AsicFlowOptions,
    default_tech=CMOS250_ASIC,
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
