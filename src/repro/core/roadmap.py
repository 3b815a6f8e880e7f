"""Roadmap projection: does the gap close over process generations?

Section 9's closing argument: "Optimistically these results point out
that ASIC design methodologies are not as inefficient as has been
presumed.  Pessimistically they do imply that even with tool and library
improvements the performance gap between ASIC and custom ICs is likely
to remain a large one."

The projection model walks both methodologies across process
generations: both ride the 1.5x-per-generation process gain; tool and
library improvements claw back a configurable slice of each *remaining
methodology factor* per generation; dynamic logic and deep pipelining
remain custom-only (per the paper's own judgement in Sections 4.1/7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._fold import fold_sum
from repro.core.factors import FactorError, FactorModel, PAPER_FACTORS
from repro.tech.scaling import SPEEDUP_PER_GENERATION


#: Which factors Section 6/5 say tools CAN recover for ASICs, and which
#: Sections 4.1/7.2/8.2 say they cannot.
TOOL_RECOVERABLE = ("floorplanning", "sizing")
PARTIALLY_RECOVERABLE = ("process_variation",)  # speed testing, better libs
CUSTOM_ONLY = ("microarchitecture", "dynamic_logic")


@dataclass(frozen=True)
class RoadmapPoint:
    """The projected gap at one generation.

    Attributes:
        generation: 0 = the paper's 0.25 um baseline.
        gap: projected custom/ASIC speed ratio.
        recovered: cumulative factor ASIC tools have recovered.
    """

    generation: int
    gap: float
    recovered: float


def project_gap(
    generations: int = 4,
    initial_gap: float = 8.0,
    tool_recovery_per_generation: float = 0.4,
    partial_recovery_per_generation: float = 0.15,
    model: FactorModel | None = None,
) -> list[RoadmapPoint]:
    """Project the ASIC-custom gap over future process generations.

    Per generation, tools recover ``tool_recovery_per_generation`` of
    the *log* of each recoverable factor and a smaller share of the
    partially recoverable ones; the custom-only factors persist.  Both
    camps gain the process speedup equally, so it cancels out of the
    ratio.

    Args:
        generations: how many generations to project.
        initial_gap: observed starting ratio (the paper's 6-8x band).
        tool_recovery_per_generation: fraction of the remaining
            recoverable advantage tools claw back each generation.
        partial_recovery_per_generation: same for partially recoverable
            factors (speed testing, library refreshes).
        model: factor model (defaults to the paper's).

    Raises:
        FactorError: for out-of-range recovery rates or gaps.
    """
    import math

    if initial_gap <= 1.0:
        raise FactorError("initial gap must exceed 1x")
    for rate in (tool_recovery_per_generation,
                 partial_recovery_per_generation):
        if not 0.0 <= rate <= 1.0:
            raise FactorError("recovery rates must be within [0, 1]")
    factor_model = model or FactorModel()

    # Split the observed gap across factors proportionally to the
    # paper's log-domain weights.
    log_total = math.log(factor_model.total_product())
    log_gap = math.log(initial_gap)
    remaining = {
        f.name: log_gap * math.log(f.max_contribution) / log_total
        for f in factor_model.factors
    }

    points = [RoadmapPoint(0, initial_gap, 1.0)]
    recovered_total = 0.0
    for gen in range(1, generations + 1):
        for name in TOOL_RECOVERABLE:
            if name in remaining:
                claw = remaining[name] * tool_recovery_per_generation
                remaining[name] -= claw
                recovered_total += claw
        for name in PARTIALLY_RECOVERABLE:
            if name in remaining:
                claw = remaining[name] * partial_recovery_per_generation
                remaining[name] -= claw
                recovered_total += claw
        gap = math.exp(fold_sum(remaining.values()))
        points.append(
            RoadmapPoint(gen, gap, math.exp(recovered_total))
        )
    return points


def asymptotic_gap(
    initial_gap: float = 8.0, model: FactorModel | None = None
) -> float:
    """The gap that survives perfect ASIC tools (custom-only factors).

    With floorplanning, sizing and variation access fully recovered, the
    pipelining and dynamic-logic shares of the observed gap remain --
    the "likely to remain a large one" of Section 9.
    """
    import math

    factor_model = model or FactorModel()
    log_total = math.log(factor_model.total_product())
    log_gap = math.log(initial_gap)
    surviving = fold_sum(
        log_gap * math.log(factor_model.get(name).max_contribution) / log_total
        for name in CUSTOM_ONLY
    )
    return math.exp(surviving)


def roadmap_table(points: list[RoadmapPoint]) -> str:
    """Text table of a projection."""
    lines = [f"{'generation':>10s} {'gap':>8s} {'tools recovered':>16s}"]
    for point in points:
        lines.append(
            f"{point.generation:>10d} {point.gap:>7.2f}x "
            f"{point.recovered:>15.2f}x"
        )
    return "\n".join(lines)
