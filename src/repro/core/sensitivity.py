"""Sensitivity analysis of the factor model.

Section 9: "Based on our analysis we believe that the influence of the
factors of floorplanning and circuit design, while significant, are
probably overstated in their importance in the performance gap between
ASIC and custom ICs.  From our analysis the two most significant factors
are pipelining and process variation."

This module makes that judgement quantitative: in the multiplicative
model the *log-domain share* of each factor is its importance, and the
effect of mis-estimating a factor is bounded by its own size.  The
tornado analysis shows how the total responds when each factor moves
through a plausible estimation-error band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._fold import fold_sum
from repro.core.factors import FactorError, FactorModel


@dataclass(frozen=True)
class FactorSensitivity:
    """How much one factor matters to the total gap.

    Attributes:
        name: factor name.
        log_share: fraction of log(total) this factor carries.
        total_if_halved: total gap if the factor's *excess* over 1.0 is
            halved (the estimation-error scenario).
        total_if_removed: total gap with the factor at 1.0.
    """

    name: str
    log_share: float
    total_if_halved: float
    total_if_removed: float


def _scaled_contribution(value: float, scale: float) -> float:
    """Scale a factor's excess over 1: 1 + scale * (value - 1)."""
    return 1.0 + scale * (value - 1.0)


def sensitivity_analysis(model: FactorModel | None = None) -> list[FactorSensitivity]:
    """Tornado analysis of the factor model, largest impact first."""
    factor_model = model or FactorModel()
    total = factor_model.total_product()
    log_total = math.log(total)
    if log_total <= 0:
        raise FactorError("total gap must exceed 1x")
    out = []
    for factor in factor_model.factors:
        halved = total / factor.max_contribution * _scaled_contribution(
            factor.max_contribution, 0.5
        )
        removed = total / factor.max_contribution
        out.append(
            FactorSensitivity(
                name=factor.name,
                log_share=math.log(factor.max_contribution) / log_total,
                total_if_halved=halved,
                total_if_removed=removed,
            )
        )
    out.sort(key=lambda s: s.log_share, reverse=True)
    return out


def overstatement_test(
    model: FactorModel | None = None,
    minor_factors: tuple[str, ...] = ("floorplanning", "sizing"),
) -> float:
    """Quantify the Section 9 'overstated' judgement.

    Returns the fraction of the total (log) gap carried by the named
    minor factors together.  The paper's point: even if both estimates
    were halved, the total story barely changes -- their combined share
    is small.
    """
    factor_model = model or FactorModel()
    shares = {
        s.name: s.log_share for s in sensitivity_analysis(factor_model)
    }
    missing = [n for n in minor_factors if n not in shares]
    if missing:
        raise FactorError(f"unknown factors {missing}")
    return fold_sum(shares[name] for name in minor_factors)


def tornado_table(model: FactorModel | None = None) -> str:
    """Text tornado chart of factor sensitivities."""
    rows = sensitivity_analysis(model)
    total = (model or FactorModel()).total_product()
    lines = [
        f"total gap {total:.1f}x",
        f"{'factor':<20s} {'share':>7s} {'if halved':>10s} "
        f"{'if removed':>11s}",
    ]
    for row in rows:
        bar = "#" * int(40 * row.log_share)
        lines.append(
            f"{row.name:<20s} {100 * row.log_share:>6.1f}% "
            f"{row.total_if_halved:>9.1f}x {row.total_if_removed:>10.1f}x "
            f"{bar}"
        )
    return "\n".join(lines)
