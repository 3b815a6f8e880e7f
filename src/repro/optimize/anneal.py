"""Simulated annealing of a site exchange over cached net lengths.

Both placement styles share this one kernel: the row-grid placer
exchanges instances between the spots they started on, and the
structured-ASIC placer moves instances across fabric slots (swapping
with the occupant, or into a free slot).  A move sends instance ``a``
to site ``s``; whatever instance stood on ``s`` takes ``a``'s site.

Each move is priced before it is made: the movers' new coordinates go
into the :class:`~repro.physical.placement.NetLengths` mirror, the nets
touching them are re-measured into a local list, and only an accepted
move writes those lengths and the site maps.  A rejected move restores
two (or four) coordinates and nothing else.

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
    ``sum(new) - sum(old)`` over the touched nets in sorted-id order.

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
    touching, pins, pick = nets.touching, nets.pins, nets.pick
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
        xs[a] = sx[s]
        ys[a] = sy[s]
        if b < 0:
            ids = sorted(touching[a])
        else:
            xs[b] = sx[src]
            ys[b] = sy[src]
            ids = sorted(touching[a] | touching[b])
        # A two-pin net is (|xa - xb| + |ya - yb|) * detour, exact since
        # max - min of two floats is |a - b| bit for bit.
        new = []
        for k in ids:
            get = pick[k]
            if get is None:
                i, j = pins[k]
                new.append((abs(xs[i] - xs[j]) + abs(ys[i] - ys[j])) * detour)
            else:
                px = get(xs)
                py = get(ys)
                new.append(
                    ((max(px) - min(px)) + (max(py) - min(py))) * detour)
        delta = sum(new) - sum([lengths[k] for k in ids])
        if delta > 0 and uniform() >= exp(-delta / max(temperature, 1e-9)):
            xs[a] = sx[src]
            ys[a] = sy[src]
            if b >= 0:
                xs[b] = sx[s]
                ys[b] = sy[s]
        else:
            accepted += 1
            for k, length in zip(ids, new):
                lengths[k] = length
            site_of[a] = s
            occupant[s] = a
            occupant[src] = b
            if b >= 0:
                site_of[b] = src
        temperature *= cooling
    return accepted
