"""Watching a long sweep live: event bus, heartbeats, dashboard.

Long design-space sweeps used to be a black box between "started" and
"done".  This example turns the live telemetry layer on and fans an
ASIC flow sweep across worker processes: every stage start/finish,
cache replay, task completion and worker heartbeat is published to the
process event bus *as it happens*, sent out of the pool workers down
their task pipes, and folded into a terminal dashboard --
per-flow stage progress, sweep completion with ETA, per-worker lanes.

The same stream lands in a JSONL file, so a second terminal can attach
to the run while it is still going::

    python examples/live_sweep.py --workers 2 --events /tmp/ev.jsonl
    # elsewhere:
    repro-gap top /tmp/ev.jsonl --follow

After the sweep, the per-point results are printed next to the bus's
own delivery statistics.

Run with::

    python examples/live_sweep.py [--workers N] [--events FILE]
"""

import argparse
import sys

from repro.flows import AsicFlowOptions, run_flow_sweep
from repro.obs import live

SIZING_BUDGETS = (0, 4, 8, 16, 24, 40)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="sweep worker processes")
    parser.add_argument("--bits", type=int, default=8)
    parser.add_argument("--events", metavar="FILE", default=None,
                        help="also stream events to FILE as JSON lines "
                             "(watch with `repro-gap top FILE --follow`)")
    args = parser.parse_args()

    points = [
        AsicFlowOptions(bits=args.bits, sizing_moves=moves)
        for moves in SIZING_BUDGETS
    ]

    # Turn the bus on (with an optional JSONL sink), hang a dashboard
    # off it, and ask workers to heartbeat twice a second.
    bus = live.enable(jsonl=args.events)
    live.configure_watch(heartbeat_s=0.5)
    dashboard = live.Dashboard(stream=sys.stderr, refresh_s=0.2)
    bus.add_callback(dashboard)

    print(f"sweeping {len(points)} sizing budgets with "
          f"{args.workers} worker(s)...", file=sys.stderr)
    results = run_flow_sweep(points, workers=args.workers,
                             label="example.live_sweep")

    print(dashboard.final(), file=sys.stderr)
    print()
    print(f"{'sizing moves':>12s} {'quoted MHz':>11s} {'area um^2':>10s}")
    for moves, result in zip(SIZING_BUDGETS, results):
        print(f"{moves:>12d} {result.quoted_frequency_mhz:>11.1f} "
              f"{result.area_um2:>10.0f}")

    stats = bus.stats()
    by_kind = ", ".join(f"{k}={v}" for k, v in stats["by_kind"].items())
    print(f"\nbus: {stats['published']} events ({by_kind})")
    if args.events:
        print(f"event stream: {args.events}  "
              f"(replay with `repro-gap top {args.events}`)")
    live.disable()


if __name__ == "__main__":
    main()
