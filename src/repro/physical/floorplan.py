"""Slicing floorplanner with simulated annealing.

Section 5.2: "Custom ICs are typically manually floorplanned.  A number
of tools are now reaching the ASIC market to facilitate chip-level
floorplanning."  This module is such a tool: blocks (hard or soft) are
arranged by annealing over normalised Polish expressions of a slicing
tree (Wong-Liu moves), with a cost mixing die area and the half-perimeter
wirelength of inter-block nets.

The floorplanner's output feeds :class:`repro.physical.wires` to price
the global wires between modules -- localising connected blocks next to
each other is exactly what buys the paper's "up to 25%".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro._fold import fold_sum
from repro.physical.geometry import (
    GeometryError,
    Point,
    Rect,
    bounding_box,
    half_perimeter_wirelength,
)


@dataclass(frozen=True)
class Block:
    """A floorplan block (macro/module).

    Attributes:
        name: block name.
        area_um2: required area.
        aspect_ratios: candidate height/width ratios (soft blocks offer
            several, hard blocks exactly one).
    """

    name: str
    area_um2: float
    aspect_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        if self.area_um2 <= 0:
            raise GeometryError(f"block {self.name}: area must be positive")
        if not self.aspect_ratios or any(r <= 0 for r in self.aspect_ratios):
            raise GeometryError(f"block {self.name}: bad aspect ratios")

    def shapes(self) -> list[tuple[float, float]]:
        """Candidate (width, height) realisations."""
        out = []
        for ratio in self.aspect_ratios:
            width = math.sqrt(self.area_um2 / ratio)
            out.append((width, width * ratio))
        return out


@dataclass
class Floorplan:
    """A placed floorplan: block name -> rectangle."""

    rects: dict[str, Rect]

    @property
    def die(self) -> Rect:
        return bounding_box(list(self.rects.values()))

    @property
    def die_area_um2(self) -> float:
        return self.die.area

    def utilization(self) -> float:
        """Block area over die area (1.0 = perfect packing)."""
        used = fold_sum(r.area for r in self.rects.values())
        return used / self.die_area_um2

    def center_of(self, block: str) -> Point:
        try:
            return self.rects[block].center
        except KeyError:
            raise GeometryError(f"no block {block!r} in floorplan") from None

    def wirelength(self, nets: list[list[str]]) -> float:
        """Total HPWL of nets, each a list of block names."""
        return fold_sum(
            half_perimeter_wirelength([self.center_of(b) for b in net])
            for net in nets
        )

    def check_no_overlap(self) -> list[tuple[str, str]]:
        """Pairs of overlapping blocks (must be empty for a legal plan)."""
        names = sorted(self.rects)
        bad = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.rects[a].overlaps(self.rects[b]):
                    bad.append((a, b))
        return bad


# ----------------------------------------------------------------------
# Slicing-tree evaluation (stockmeyer-lite: single best shape per node)
# ----------------------------------------------------------------------

_H, _V = "H", "V"  # horizontal cut (stack), vertical cut (side by side)


def _is_operator(token: str) -> bool:
    return token in (_H, _V)


def _evaluate(
    expression: list[str], blocks: dict[str, Block]
) -> tuple[float, float, dict[str, Rect]]:
    """Evaluate a Polish expression; returns (width, height, placement).

    Each node keeps its full shape list (Stockmeyer curve, pruned to
    non-dominated points) and the best die is realised top-down.
    """
    stack: list[list[tuple[float, float, object]]] = []
    for token in expression:
        if not _is_operator(token):
            shapes = [(w, h, token) for (w, h) in blocks[token].shapes()]
            stack.append(_prune(shapes))
            continue
        right = stack.pop()
        left = stack.pop()
        combined = []
        for lw, lh, lplan in left:
            for rw, rh, rplan in right:
                if token == _V:
                    combined.append(
                        (lw + rw, max(lh, rh), (token, lplan, rplan, lw, lh, rw, rh))
                    )
                else:
                    combined.append(
                        (max(lw, rw), lh + rh, (token, lplan, rplan, lw, lh, rw, rh))
                    )
        stack.append(_prune(combined))
    if len(stack) != 1:
        raise GeometryError("malformed Polish expression")
    best = min(stack[0], key=lambda s: s[0] * s[1])
    rects: dict[str, Rect] = {}
    _realize(best[2], 0.0, 0.0, rects)
    return best[0], best[1], rects


def _prune(shapes):
    """Keep only Pareto-optimal (width, height) shapes."""
    shapes = sorted(shapes, key=lambda s: (s[0], s[1]))
    pruned = []
    best_h = math.inf
    for shape in shapes:
        if shape[1] < best_h - 1e-12:
            pruned.append(shape)
            best_h = shape[1]
    return pruned


def _realize(plan, x: float, y: float, rects: dict[str, Rect]) -> None:
    if isinstance(plan, str):
        # Leaf: dimensions recovered by the parent; store placeholder and
        # fix below -- leaves carry their shape via the parent tuple.
        raise GeometryError("leaf realisation requires parent dimensions")
    if isinstance(plan, tuple) and len(plan) == 7:
        token, lplan, rplan, lw, lh, rw, rh = plan
        _realize_child(lplan, x, y, lw, lh, rects)
        if token == _V:
            _realize_child(rplan, x + lw, y, rw, rh, rects)
        else:
            _realize_child(rplan, x, y + lh, rw, rh, rects)
        return
    raise GeometryError(f"unexpected plan node {plan!r}")


def _realize_child(plan, x, y, w, h, rects) -> None:
    if isinstance(plan, str):
        rects[plan] = Rect(x, y, w, h)
    else:
        _realize(plan, x, y, rects)


# ----------------------------------------------------------------------
# Simulated annealing over normalised Polish expressions
# ----------------------------------------------------------------------

@dataclass
class FloorplanResult:
    """Annealing outcome.

    Attributes:
        floorplan: the best legal plan found.
        cost: final cost value.
        iterations: annealing steps taken.
    """

    floorplan: Floorplan
    cost: float
    iterations: int


class SlicingFloorplanner:
    """Wong-Liu style annealer over slicing structures.

    Args:
        blocks: the modules to arrange.
        nets: inter-block connectivity as lists of block names.
        wirelength_weight: relative weight of HPWL against die area in
            the cost (normalised internally).
        seed: RNG seed for reproducibility.
    """

    def __init__(
        self,
        blocks: list[Block],
        nets: list[list[str]] | None = None,
        wirelength_weight: float = 0.5,
        seed: int = 1,
    ) -> None:
        if len(blocks) < 2:
            raise GeometryError("floorplanning needs at least two blocks")
        self.blocks = {b.name: b for b in blocks}
        if len(self.blocks) != len(blocks):
            raise GeometryError("duplicate block names")
        self.nets = nets or []
        for net in self.nets:
            for name in net:
                if name not in self.blocks:
                    raise GeometryError(f"net references unknown block {name!r}")
        self.wirelength_weight = wirelength_weight
        self.seed = seed

    def initial_expression(self) -> list[str]:
        """Balanced starting expression: b0 b1 V b2 V b3 V ..."""
        names = sorted(self.blocks)
        expr = [names[0]]
        for i, name in enumerate(names[1:]):
            expr.append(name)
            expr.append(_V if i % 2 == 0 else _H)
        return expr

    def _cost(self, expression: list[str]) -> tuple[float, Floorplan]:
        width, height, rects = _evaluate(expression, self.blocks)
        plan = Floorplan(rects)
        area = width * height
        total_block = fold_sum(b.area_um2 for b in self.blocks.values())
        area_term = area / total_block
        if self.nets:
            wl = plan.wirelength(self.nets)
            norm = math.sqrt(total_block) * max(1, len(self.nets))
            wl_term = wl / norm
        else:
            wl_term = 0.0
        cost = (1 - self.wirelength_weight) * area_term + (
            self.wirelength_weight * wl_term
        )
        return cost, plan

    def _neighbors(self, expr: list[str], rng: random.Random) -> list[str]:
        """One Wong-Liu move: M1 swap operands, M2 flip chain, M3 swap
        operand/operator (validity-checked)."""
        new = list(expr)
        move = rng.randint(1, 3)
        operand_idx = [i for i, t in enumerate(new) if not _is_operator(t)]
        if move == 1:
            i, j = rng.sample(operand_idx, 2)
            new[i], new[j] = new[j], new[i]
            return new
        if move == 2:
            op_idx = [i for i, t in enumerate(new) if _is_operator(t)]
            start = rng.choice(op_idx)
            i = start
            while i < len(new) and _is_operator(new[i]):
                new[i] = _H if new[i] == _V else _V
                i += 1
            return new
        # M3: swap adjacent operand/operator pair if it stays normalised.
        candidates = [
            i
            for i in range(len(new) - 1)
            if _is_operator(new[i]) != _is_operator(new[i + 1])
        ]
        rng.shuffle(candidates)
        for i in candidates:
            swapped = list(new)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if _is_valid_polish(swapped):
                return swapped
        return new

    def run(
        self,
        iterations: int = 2000,
        initial_temperature: float = 1.0,
        cooling: float = 0.995,
    ) -> FloorplanResult:
        """Anneal and return the best floorplan found."""
        rng = random.Random(self.seed)
        expr = self.initial_expression()
        cost, plan = self._cost(expr)
        best_cost, best_plan = cost, plan
        temperature = initial_temperature
        for step in range(iterations):
            candidate = self._neighbors(expr, rng)
            if not _is_valid_polish(candidate):
                continue
            c_cost, c_plan = self._cost(candidate)
            delta = c_cost - cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                expr, cost = candidate, c_cost
                if c_cost < best_cost:
                    best_cost, best_plan = c_cost, c_plan
            temperature *= cooling
        overlaps = best_plan.check_no_overlap()
        if overlaps:
            raise GeometryError(f"floorplanner produced overlaps: {overlaps}")
        return FloorplanResult(
            floorplan=best_plan, cost=best_cost, iterations=iterations
        )


def _is_valid_polish(expression: list[str]) -> bool:
    """Balloting property plus no two identical adjacent operators chains
    breaking normalisation is tolerated (we only need validity)."""
    depth = 0
    for token in expression:
        if _is_operator(token):
            depth -= 1
            if depth < 1:
                return False
        else:
            depth += 1
    return depth == 1
