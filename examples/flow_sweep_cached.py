"""Cached flow sweeps: survey a sizing budget with prefix sharing.

Runs the ASIC flow across a range of post-layout sizing budgets -- the
Section 6.2 "sizing can make a speed difference of 20% or more" knob --
as one :func:`repro.flows.run_flow_sweep` call.  Every sweep point maps
and places the same netlist, so the flow engine's fingerprint cache
computes that prefix once and replays it for the other points; the
per-stage records printed for each point show exactly which stages were
recomputed and which were replayed.  The ``size`` stage recomputes, but
it replays the sizing moves an earlier point already made (a larger
budget only extends them), so the sweep pays the greedy steps of its
largest budget once.

With ``--workers N`` the sweep fans out over a process pool and the
points share stage results through an on-disk cache directory instead
of process memory.

Run with::

    python examples/flow_sweep_cached.py [--workers N]
"""

import argparse
import os
import tempfile
import time

from repro.flows import AsicFlowOptions, run_flow_sweep
from repro.flows import cache as stage_cache

SIZING_BUDGETS = (0, 5, 10, 20, 40, 80)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep worker processes")
    parser.add_argument("--bits", type=int, default=8)
    args = parser.parse_args()

    points = [
        AsicFlowOptions(bits=args.bits, sizing_moves=moves)
        for moves in SIZING_BUDGETS
    ]
    with tempfile.TemporaryDirectory(prefix="stage-cache-") as cache_dir:
        start = time.perf_counter()
        results = run_flow_sweep(
            points, workers=args.workers,
            cache_dir=cache_dir if args.workers > 1 else None,
        )
        wall_s = time.perf_counter() - start
        names = os.listdir(cache_dir)
        spilled = sum(n.endswith(stage_cache.BLOB_SUFFIX) for n in names)
        recorded = sum(n.endswith(stage_cache.TRAJECTORY_SUFFIX)
                       for n in names)

    print(f"{'moves':>6s} {'quoted MHz':>11s} {'FO4':>6s} "
          f"{'area um2':>10s}   stages")
    for options, result in zip(points, results):
        stages = " ".join(
            f"{r.name}:{'hit' if r.cache_hit else r.status}"
            for r in result.stage_records
        )
        print(f"{options.sizing_moves:>6d} "
              f"{result.quoted_frequency_mhz:>11.1f} "
              f"{result.fo4_depth:>6.1f} {result.area_um2:>10.0f}   "
              f"{stages}")

    if args.workers > 1:
        # Pool workers hit the shared disk cache; the parent's
        # in-memory counters never see those lookups.
        detail = (f"{spilled} stage blobs and {recorded} sizing "
                  "trajectories shared on disk")
    else:
        stats = stage_cache.stats()
        detail = (f"{int(stats['hits'])} hits / "
                  f"{int(stats['misses'])} misses, "
                  f"{int(stats['trajectory_hits'])} sizing replays")
    print(f"\n{len(points)} points in {wall_s:.2f} s with "
          f"workers={args.workers}; stage cache: {detail}")


if __name__ == "__main__":
    main()
