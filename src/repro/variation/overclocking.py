"""Down-binning and over-clocking headroom (Section 8.1.1).

"...down-binning of chips with higher clock frequency to meet demand
(when stores of slower versions are depleted, evidenced by the ease of
over-clocking many chips), which extend the range of clock speeds
typically seen within a technology generation."

The model: a vendor sells against a bin ladder; when demand for slow
grades exceeds their natural supply, faster dies are *down-binned* (sold
below their capability).  The buyer-visible consequence is over-clocking
headroom: the distribution of (actual capability / rated speed) across
shipped parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._fold import fold_sum
from repro.variation.components import VariationError
from repro.variation.montecarlo import SpeedDistribution


@dataclass(frozen=True)
class ShippedPart:
    """One shipped chip.

    Attributes:
        rated_mhz: the grade it was sold as.
        capable_mhz: what the die can actually do.
    """

    rated_mhz: float
    capable_mhz: float

    @property
    def headroom(self) -> float:
        """Over-clocking margin: capable over rated."""
        return self.capable_mhz / self.rated_mhz


@dataclass(frozen=True)
class BinningOutcome:
    """Result of demand-driven binning.

    Attributes:
        parts_per_bin: rated frequency -> shipped count.
        down_binned_fraction: share of parts sold below capability bin.
        mean_headroom: average over-clocking margin across shipments.
        p90_headroom: 90th-percentile margin (the enthusiast's chip).
    """

    parts_per_bin: dict[float, int]
    down_binned_fraction: float
    mean_headroom: float
    p90_headroom: float


def ship_against_demand(
    distribution: SpeedDistribution,
    bin_edges_mhz: list[float],
    demand_fractions: list[float],
    seed: int = 3,
) -> BinningOutcome:
    """Allocate a die population to demanded grades, down-binning as
    needed.

    Each die is first assigned its natural (highest qualifying) grade;
    if a slower grade is over-demanded relative to natural supply, the
    fastest surplus dies are re-labelled downward to fill it.

    Args:
        distribution: sampled die population.
        bin_edges_mhz: ascending grade frequencies.
        demand_fractions: demanded share per grade (same length, sums to
            <= 1; the remainder is flexible demand served naturally).
        seed: RNG seed for tie-shuffling.

    Raises:
        VariationError: for inconsistent ladders/demands.
    """
    edges = list(bin_edges_mhz)
    if edges != sorted(edges) or not edges:
        raise VariationError("bin edges must be ascending and non-empty")
    if len(demand_fractions) != len(edges):
        raise VariationError("demand must match bin count")
    if any(d < 0 for d in demand_fractions) or fold_sum(demand_fractions) > 1.0001:
        raise VariationError("demand fractions must be >= 0 and sum <= 1")

    freqs = np.sort(distribution.frequencies_mhz)[::-1]  # fastest first
    sellable = freqs[freqs >= edges[0]]
    n = len(sellable)
    if n == 0:
        raise VariationError("no sellable dies at the lowest grade")
    demanded_counts = [int(round(d * n)) for d in demand_fractions]

    # Natural grade of each die: highest edge it meets.
    natural = np.searchsorted(edges, sellable, side="right") - 1

    parts: list[ShippedPart] = []
    remaining = sellable.tolist()
    remaining_natural = natural.tolist()
    # Fill demanded grades from slowest upward; shortfalls pull the
    # *fastest remaining* dies down (that is down-binning).
    for grade_idx in range(len(edges)):
        want = demanded_counts[grade_idx]
        chosen = 0
        # Natural fills first (slowest suitable dies).
        i = len(remaining) - 1
        while i >= 0 and chosen < want:
            if remaining_natural[i] == grade_idx:
                parts.append(
                    ShippedPart(edges[grade_idx], remaining.pop(i))
                )
                remaining_natural.pop(i)
                chosen += 1
            i -= 1
        # Down-bin the fastest surplus to cover the rest.
        while chosen < want and remaining:
            parts.append(ShippedPart(edges[grade_idx], remaining.pop(0)))
            remaining_natural.pop(0)
            chosen += 1
    # Whatever is left ships at its natural grade.
    for capability, grade_idx in zip(remaining, remaining_natural):
        parts.append(ShippedPart(edges[grade_idx], capability))

    per_bin: dict[float, int] = {edge: 0 for edge in edges}
    down = 0
    headrooms = []
    for part in parts:
        per_bin[part.rated_mhz] += 1
        headrooms.append(part.headroom)
        natural_edge = max(e for e in edges if e <= part.capable_mhz)
        if part.rated_mhz < natural_edge:
            down += 1
    headrooms_arr = np.array(headrooms)
    return BinningOutcome(
        parts_per_bin=per_bin,
        down_binned_fraction=down / len(parts),
        mean_headroom=float(headrooms_arr.mean()),
        p90_headroom=float(np.percentile(headrooms_arr, 90.0)),
    )


def overclocking_headroom(
    distribution: SpeedDistribution, rated_mhz: float
) -> float:
    """Median over-clocking margin of parts sold at one conservative grade.

    The Section 8.1.1 observation condensed: when everything ships at a
    safe low grade, the median die carries substantial headroom.
    """
    if rated_mhz <= 0:
        raise VariationError("rated frequency must be positive")
    capable = distribution.frequencies_mhz
    qualifying = capable[capable >= rated_mhz]
    if len(qualifying) == 0:
        raise VariationError("no dies qualify at that grade")
    return float(np.median(qualifying) / rated_mhz)
