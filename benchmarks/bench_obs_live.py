"""Live-bus overhead: the telemetry stream must be close to free.

The live event bus rides the same contract as the rest of the
observability layer: off by default, one flag check when off, and cheap
enough when on that leaving a dashboard attached to a real run does not
distort what the run measures.  This benchmark prices both halves: the
raw publish path (lock + sequence + fan-out to one subscriber), and an
end-to-end ASIC flow run with the bus on (JSONL sink attached) against
the same flow with the bus off.

Both wall times land in ``BENCH_paperbench.json`` as
``bench.obs_live.flow_off.s`` / ``bench.obs_live.flow_on.s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperbench import record_wall, report, row, run_once

from repro.flows import AsicFlowOptions, run_asic_flow
from repro.flows import cache as stage_cache
from repro.obs import live

#: Enough publishes to dwarf timer noise, few enough to stay < 100 ms.
PUBLISH_COUNT = 20_000

OPTIONS = AsicFlowOptions(bits=8, sizing_moves=10)


def _measure(tmp_sink: str):
    # Raw publish throughput with one live subscriber draining nothing.
    bus = live.EventBus()
    subscription = bus.subscribe(maxlen=64)
    start = time.perf_counter()
    for index in range(PUBLISH_COUNT):
        bus.publish("log", "bench", index=index)
    publish_s = time.perf_counter() - start
    rate = PUBLISH_COUNT / publish_s

    # End-to-end flow, bus off vs. on (cold stage cache both times).
    stage_cache.reset()
    start = time.perf_counter()
    off_result = run_asic_flow(OPTIONS)
    off_s = time.perf_counter() - start

    stage_cache.reset()
    live.enable(jsonl=tmp_sink)
    try:
        start = time.perf_counter()
        on_result = run_asic_flow(OPTIONS)
        on_s = time.perf_counter() - start
        events = live.get_bus().stats()["published"]
    finally:
        live.disable()
    assert subscription.dropped > 0  # bounded consumer, no backpressure
    return rate, off_s, on_s, events, off_result, on_result


def test_obs_live_overhead(benchmark, tmp_path):
    sink = str(tmp_path / "events.jsonl")
    rate, off_s, on_s, events, off_result, on_result = run_once(
        benchmark, lambda: _measure(sink)
    )
    record_wall("obs_live.flow_off", off_s)
    record_wall("obs_live.flow_on", on_s)
    overhead = on_s / off_s

    # The stream is a side channel: the flow's answer cannot move.
    off_dict, on_dict = off_result.to_dict(), on_result.to_dict()
    off_dict.pop("stages")
    on_dict.pop("stages")
    assert off_dict == on_dict

    print()
    print(f"publish rate {rate / 1e3:.0f}k events/s; flow "
          f"off {off_s:.3f} s, on {on_s:.3f} s ({overhead:.2f}x), "
          f"{events} events streamed")

    rows = [
        row("bus publish + fan-out throughput", ">= 50k events/s",
            rate / 1e3, 50.0, 1e9, fmt="{:.0f}k/s", host=True),
        row("flow wall-time factor with live bus + sink on", "< 1.5x",
            overhead, 0.0, 1.5, fmt="{:.2f}x", host=True),
    ]
    report("S2  Live telemetry overhead (obs.live)", rows)
    for entry in rows:
        assert entry.ok, entry
