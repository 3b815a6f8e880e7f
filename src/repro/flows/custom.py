"""The custom implementation flow, as a stage composition on the engine.

The full-custom methodology of the paper's Sections 4-8, with every lever
pulled: a short-Leff custom process, deeper pipelining, continuous
transistor sizing, hand-quality (careful, annealed) placement, a 5%-skew
hand-balanced clock with latch-based time borrowing available, domino
logic on the critical path, and flagship-bin silicon instead of a
worst-case quote.

Like :mod:`repro.flows.asic_flow`, the flow is a declarative
:class:`~repro.flows.engine.StageGraph` (:func:`custom_flow_graph`);
instrumentation, degradation, fingerprint caching and checkpoint/resume
come from the shared engine, and the stage bodies and result finalizer
the styles share from :mod:`repro.flows.stages`.  What is custom's own
is the stage-count probe, the latch/domino/flagship levers, and an
``sta`` that scales the logic share of the cycle by the domino speedup
before writing ``period_ps``/``logic_ps``.

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
from repro.flows.stages import (
    map_netlist,
    place_cells,
    quote_stage,
    recover_place,
    size_stage,
    sta_stage,
    stage_cts,
    stage_sta,
    style_graph,
)
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

    map_netlist(ctx, comb, library,
                custom_clock(20.0 * ctx.tech.fo4_delay_ps), stages_wanted,
                use_latches=options.use_latches)


def _stage_place(ctx: FlowContext) -> None:
    place_cells(ctx, "careful")


def _stage_sta(ctx: FlowContext) -> None:
    stage_sta(ctx)
    if ctx.options.use_domino:
        # Domino accelerates the combinational portion only; registers,
        # skew and wires keep their cost (Section 7.1's dilution from
        # 50-100% combinational to ~50% sequential).  The speedup
        # constant is the family profile, itself validated against
        # gate-level domino mappings in the test suite and bench E9.
        domino_factor = DOMINO_PROFILE.combinational_speedup
        logic_ps = ctx["logic_ps"]
        ctx["period_ps"] = (ctx["period_ps"] - logic_ps
                            + logic_ps / domino_factor)
        ctx["logic_ps"] = logic_ps / domino_factor
        ctx.notes["domino_factor"] = domino_factor
        ctx.span.set(min_period_ps=ctx["period_ps"])


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


def custom_flow_graph() -> StageGraph:
    """The custom flow's declarative stage graph."""
    return style_graph("custom", (
        Stage(
            name="map", run=_stage_map, critical=True,
            outputs=("module", "library", "stages", "clock"),
            params=("workload", "bits", "pipeline_stages",
                    "target_cycle_fo4", "use_latches", "use_domino"),
        ),
        Stage(
            name="place", run=_stage_place,
            inputs=("module", "library"),
            outputs=("wire",),
            params=("seed",),
            recover=recover_place,
        ),
        Stage(
            name="cts", run=stage_cts,
            inputs=("module", "library", "clock"),
            # Buffer insertion synthesises exactly-sized BUF cells
            # through the continuous factory, so the library is
            # rewritten alongside the netlist.
            outputs=("module", "library"),
        ),
        # Continuous sizing registers freshly generated drive variants
        # in the library, so the library is rewritten here too -- a
        # cache replay must restore both.
        size_stage(outputs=("module", "library")),
        sta_stage(_stage_sta, params=("use_domino",)),
        quote_stage(_stage_quote, params=("flagship_silicon", "seed")),
    ))


#: Module-level graph instance the flow entry point and the CLI share.
CUSTOM_GRAPH = custom_flow_graph()


#: The registered custom backend (also importable for direct engine use).
CUSTOM_BACKEND = register_backend(Backend(
    name="custom",
    graph=CUSTOM_GRAPH,
    options_cls=CustomFlowOptions,
    default_tech=CMOS250_CUSTOM,
    description="full-custom flow: short-Leff process, continuous "
                "sizing, domino, flagship silicon",
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
