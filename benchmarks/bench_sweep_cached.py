"""Stage-cache ablation: a shared-prefix sweep with and without caching.

Design-space sweeps are the reproduction's main workload -- the same
netlist surveyed across sizing budgets, quoting policies, pipeline
depths.  Points in such a sweep share their expensive map/place/cts
prefix, and the flow engine's fingerprint cache computes that prefix
once and replays it everywhere else.  This benchmark prices the win:
the same six-point sweep runs cold (cache disabled, every point pays
full price) and warm (cache enabled), and the wall-time ratio must be
at least 2x.  The two legs alternate three times and each keeps its
fastest run, so a burst of host load during one leg cannot decide the
ratio.  Both legs must also agree bit-for-bit -- the cache is a pure
wall-time optimisation.

Both leg times land in ``BENCH_paperbench.json`` as
``bench.sweep_prefix.uncached.s`` / ``bench.sweep_prefix.cached.s``,
next to the replay cost itself: the cached stages' wall per replaying
point (``bench.sweep_prefix.replay_per_point.s``) and the ``pickle.loads``
calls and payload bytes a warm sweep decodes
(``bench.sweep_prefix.decodes``, ``bench.sweep_prefix.decoded_kb``).

The ``size`` stage replays each point from the TILOS trajectory the
first (largest) budget recorded, so a warm sweep runs the greedy steps
of its largest budget only: ``bench.sweep_prefix.tilos_steps`` counts
the steps that ran trials in one more warm sweep, traced.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperbench import record_value, record_wall, report, row, run_once

from repro import obs
from repro.flows import AsicFlowOptions, run_flow_sweep
from repro.flows import cache as stage_cache

#: Six sweep points sharing one map/place/cts prefix: only the sizing
#: budget varies, so per point only size/sta/quote must be recomputed.
POINTS = [
    AsicFlowOptions(bits=8, sizing_moves=moves)
    for moves in (12, 10, 8, 6, 4, 2)
]


#: Alternating cold/warm leg pairs; each leg keeps its minimum.
PAIRS = 3


def _sweep(cached: bool):
    stage_cache.reset()
    stage_cache.set_enabled(cached)
    try:
        start = time.perf_counter()
        results = run_flow_sweep(
            POINTS, label=f"bench.sweep.{'warm' if cached else 'cold'}")
        return results, time.perf_counter() - start
    finally:
        stage_cache.set_enabled(True)


def _tilos_steps() -> float:
    """Greedy TILOS steps that ran trials in one warm sweep."""
    was_enabled = obs.enabled()
    obs.enable(fresh=False)
    steps = obs.get_metrics().counter("sizing.tilos.steps")
    before = steps.value()
    try:
        _sweep(cached=True)
    finally:
        if not was_enabled:
            obs.disable()
    return steps.value() - before


def _replay_per_point(results) -> float:
    """Wall of the cached stages, per point that replays the prefix."""
    return sum(record.wall_s for result in results
               for record in result.stage_records
               if record.status == "cached") / (len(POINTS) - 1)


def _measure():
    cold_s, warm_s, replay_s = [], [], []
    for _ in range(PAIRS):
        uncached, wall_s = _sweep(cached=False)
        cold_s.append(wall_s)
        cached, wall_s = _sweep(cached=True)
        warm_s.append(wall_s)
        replay_s.append(_replay_per_point(cached))
    return uncached, cached, min(cold_s), min(warm_s), min(replay_s)


def test_sweep_cached(benchmark):
    uncached, cached, cold_s, warm_s, replay_s = run_once(benchmark,
                                                          _measure)
    stats = stage_cache.stats()  # of the last warm sweep
    tilos_steps = _tilos_steps()
    record_wall("sweep_prefix.uncached", cold_s)
    record_wall("sweep_prefix.cached", warm_s)
    record_wall("sweep_prefix.replay_per_point", replay_s)
    record_value("sweep_prefix.decodes", stats["decodes"])
    record_value("sweep_prefix.decoded_kb", stats["decoded_bytes"] / 1024)
    record_value("sweep_prefix.tilos_steps", tilos_steps)
    speedup = cold_s / warm_s

    # The cache changed nothing but the wall clock.
    for a, b in zip(uncached, cached):
        da, db = a.to_dict(), b.to_dict()
        da.pop("stages")
        db.pop("stages")
        assert da == db
    # And the sharing actually happened: every point after the first
    # replays the whole prefix.
    for result in cached[1:]:
        statuses = {r.name: r.status for r in result.stage_records}
        assert statuses["map"] == "cached"
        assert statuses["place"] == "cached"
        assert statuses["cts"] == "cached"

    hit_rate = stats["hit_rate"]
    print()
    print(f"six-point sweep, best of {PAIRS}: cold {cold_s:.3f} s, warm "
          f"{warm_s:.3f} s ({speedup:.1f}x), stage-cache hit rate "
          f"{hit_rate:.0%}; replay {replay_s * 1e3:.2f} ms/point, "
          f"{stats['decodes']:.0f} decodes of "
          f"{stats['decoded_bytes'] / 1024:.0f} kB per warm sweep; "
          f"{tilos_steps:.0f} greedy sizing steps")

    rows = [
        row("shared-prefix sweep speedup from stage cache", ">= 2x",
            speedup, 2.0, 1000.0, fmt="{:.1f}x", host=True),
        row("prefix stages replayed from cache", "3 of 6 stages",
            hit_rate, 0.4, 1.0, fmt="{:.0%}"),
        row("greedy steps per warm budget sweep", "= max budget",
            tilos_steps, max(p.sizing_moves for p in POINTS),
            max(p.sizing_moves for p in POINTS), fmt="{:.0f}"),
    ]
    report("S1  Stage-cached design-space sweeps (engine)", rows)
    for entry in rows:
        assert entry.ok, entry
