"""Simulated annealing of a site exchange over cached net lengths.

Both placement styles share this one kernel: the row-grid placer
exchanges instances between the spots they started on, and the
structured-ASIC placer moves instances across fabric slots (swapping
with the occupant, or into a free slot).  A move sends instance ``a``
to site ``s``; whatever instance stood on ``s`` takes ``a``'s site.

Each move is priced before it is made: the movers' new coordinates go
into the :class:`~repro.physical.placement.NetLengths` mirror, and the
nets touching them are priced into a local list.  A net holding both
movers keeps its length; a wider net with one mover takes its new box
from the old one by comparisons alone.  Each wide net's box keeps the
two outermost pin coordinates per side, so the extent of the other
pins is known without a scan: where the mover held a side's extreme,
the side falls back to its second pin, and the mover's new coordinate
then widens it or not.  Only an accepted move writes lengths, boxes
and the site maps, sorting each changed net's pins again for its
second extremes; a rejected one restores two (or four) coordinates and
nothing else.

The loop is deliberately spartan because its exact RNG call sequence is
load-bearing: golden-result tests pin flow outputs bit-for-bit, so the
order of ``rng`` consumption (one ``propose`` per step, then *at most
one* ``rng.random()`` -- only for an uphill move) must never change.
Placers own their sites and move proposal; the kernel owns pricing,
temperature and acceptance.
"""

from __future__ import annotations

import math
import random
from typing import Callable


def extremes(values) -> tuple[float, float, float, float]:
    """``(min, second min, max, second max)`` of two or more values.

    Ties count: ``(1.0, 1.0, 3.0, 2.0)`` for ``1.0, 3.0, 1.0, 2.0``.
    """
    ordered = sorted(values)
    return ordered[0], ordered[1], ordered[-1], ordered[-2]


def anneal(
    nets,
    sx: list[float],
    sy: list[float],
    site_of: list[int],
    occupant: list[int],
    propose: Callable[[], tuple[int, int]],
    rng: random.Random,
    steps: int,
    temperature: float,
    final_fraction: float = 0.02,
) -> int:
    """Anneal site exchanges for ``steps`` moves; return the accepted count.

    Geometric cooling from ``temperature`` down to
    ``final_fraction * temperature``; uphill moves are accepted with the
    Metropolis probability ``exp(-delta / T)``, where ``delta`` is
    ``new - old`` over the touched nets, each side added left to right in
    sorted-id order.

    Args:
        nets: a :class:`~repro.physical.placement.NetLengths` table;
            its ``xs``/``ys`` mirror must hold ``sx``/``sy`` at each
            instance's site, and stays so after every step.
        sx, sy: site coordinates.
        site_of: instance id -> site; updated in place.
        occupant: site -> instance id, ``-1`` for a free site; updated
            in place.
        propose: draws ``(a, s)`` from ``rng``: move instance ``a`` to
            site ``s`` (a deterministic amount of ``rng`` per call).
        rng: the stream ``propose`` draws from; the kernel draws the
            Metropolis test from it too.
        steps: number of proposed moves (0 = no-op).
        temperature: initial temperature, in cost units (a useful
            default is a few grid pitches of wirelength).
        final_fraction: end-of-schedule temperature as a fraction of
            the initial one.
    """
    if steps <= 0:
        return 0
    xs, ys, lengths, detour = nets.xs, nets.ys, nets.lengths, nets.detour
    touching, pins, pick, boxes = nets.touching, nets.pins, nets.pick, nets.boxes
    uniform, exp = rng.random, math.exp
    accepted = 0
    cooling = math.exp(math.log(final_fraction) / max(steps, 1))
    for _ in range(steps):
        a, s = propose()
        src = site_of[a]
        if src == s:
            accepted += 1
            temperature *= cooling
            continue
        b = occupant[s]
        fx, fy, tx, ty = sx[src], sy[src], sx[s], sy[s]
        xs[a], ys[a] = tx, ty
        ta = touching[a]
        if b < 0:
            tb = ()
            ids = sorted(ta)
        else:
            xs[b], ys[b] = fx, fy
            tb = touching[b]
            ids = sorted(ta | tb)
        # A two-pin net is (|xa - xb| + |ya - yb|) * detour, exact since
        # max - min of two floats is |a - b| bit for bit.
        new = []
        moved = []
        old = 0.0
        for k in ids:
            old += lengths[k]
            box = boxes[k]
            if box is None:
                i, j = pins[k]
                new.append((abs(xs[i] - xs[j]) + abs(ys[i] - ys[j])) * detour)
                continue
            if k in ta:
                if k in tb:
                    # Both movers are pins: its coordinates trade places.
                    new.append(lengths[k])
                    continue
                f, t, g, u = fx, tx, fy, ty
            else:
                f, t, g, u = tx, fx, ty, fy
            # One pin moves from (f, g) to (t, u).  Without it, a side it
            # held is the side's second pin (equal to the first on a
            # tie); its new coordinate then widens the box or not.
            x0, x0b, x1, x1b, y0, y0b, y1, y1b = box
            if f == x1:
                x1 = x1b
            if f == x0:
                x0 = x0b
            if t > x1:
                x1 = t
            elif t < x0:
                x0 = t
            if g == y1:
                y1 = y1b
            if g == y0:
                y0 = y0b
            if u > y1:
                y1 = u
            elif u < y0:
                y0 = u
            new.append(((x1 - x0) + (y1 - y0)) * detour)
            moved.append(k)
        # Left-to-right folds, never sum(): Python 3.12's sum()
        # compensates float rounding, which would flip accept decisions.
        grown = 0.0
        for length in new:
            grown += length
        delta = grown - old
        if delta > 0 and uniform() >= exp(-delta / max(temperature, 1e-9)):
            xs[a], ys[a] = fx, fy
            if b >= 0:
                xs[b], ys[b] = tx, ty
        else:
            accepted += 1
            for k, length in zip(ids, new):
                lengths[k] = length
            for k in moved:
                get = pick[k]
                boxes[k] = (*extremes(get(xs)), *extremes(get(ys)))
            site_of[a] = s
            occupant[s] = a
            occupant[src] = b
            if b >= 0:
                site_of[b] = src
        temperature *= cooling
    return accepted
