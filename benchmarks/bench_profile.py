"""Profiling overhead: attribution must not distort what it measures.

`obs.profile` prices every flow stage (CPU seconds via
``time.process_time``, peak memory via the sampled-RSS probe by
default, or exact ``tracemalloc`` heap in ``trace`` mode).  This
benchmark bounds the default configuration -- the one a tuning loop
would leave on: the E8-style ASIC flow (map/place/cts/size/sta/quote,
cold stage cache) runs with profiling off and with CPU + sampled-memory
attribution on, and the profiled run must stay under 2x.  Trace-mode
memory attribution is deliberately *not* bounded here: tracemalloc
instruments every allocation and costs roughly 10x on the
allocation-heavy placement stage, which is exactly why it is the
opt-in precise mode rather than the default.

Wall times land in ``BENCH_paperbench.json`` as
``bench.profile.flow_off.s`` / ``bench.profile.flow_on.s``, and the
attribution itself lands as ``bench.profile.flow_cpu_s`` (summed stage
CPU) and ``bench.profile.flow_peak_kb`` (worst stage peak RSS, KiB) so
`repro-gap budget` can put ceilings on CPU and memory, not just wall
time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperbench import record_value, record_wall, report, row, run_once

from repro.flows import AsicFlowOptions, run_asic_flow
from repro.flows import cache as stage_cache
from repro.obs import profile as obs_profile

OPTIONS = AsicFlowOptions(bits=8, sizing_moves=10)


def _measure():
    stage_cache.reset()
    start = time.perf_counter()
    off_result = run_asic_flow(OPTIONS)
    off_s = time.perf_counter() - start

    stage_cache.reset()
    obs_profile.configure(cpu=True, mem="sampled")
    try:
        start = time.perf_counter()
        on_result = run_asic_flow(OPTIONS)
        on_s = time.perf_counter() - start
    finally:
        obs_profile.reset_state()
    return off_s, on_s, off_result, on_result


def test_profile_overhead(benchmark):
    off_s, on_s, off_result, on_result = run_once(benchmark, _measure)
    record_wall("profile.flow_off", off_s)
    record_wall("profile.flow_on", on_s)
    overhead = on_s / off_s

    # Attribution is a side channel: the flow's answer cannot move.
    off_dict, on_dict = off_result.to_dict(), on_result.to_dict()
    off_dict.pop("stages")
    on_dict.pop("stages")
    assert off_dict == on_dict

    # The unprofiled run's stage records must be schema-identical to
    # the pre-profiling shape (no cpu/mem keys).
    for stage in off_result.to_dict()["stages"]:
        assert "cpu_s" not in stage and "peak_mem_kb" not in stage

    # Every executed stage of the profiled run carries both numbers.
    cpu_total, peak_kb = 0.0, 0.0
    for record in on_result.stage_records:
        assert record.cpu_s is not None, record
        assert record.peak_mem_kb is not None, record
        cpu_total += record.cpu_s
        peak_kb = max(peak_kb, record.peak_mem_kb)
    record_value("profile.flow_cpu_s", round(cpu_total, 6))
    record_value("profile.flow_peak_kb", round(peak_kb, 3))

    print()
    print(f"flow off {off_s:.3f} s, profiled {on_s:.3f} s "
          f"({overhead:.2f}x); attribution: {cpu_total:.3f} s CPU, "
          f"peak stage RSS {peak_kb:.0f} KiB")

    rows = [
        row("flow wall-time factor with cpu+mem profiling on", "< 2x",
            overhead, 0.0, 2.0, fmt="{:.2f}x", host=True),
    ]
    report("S3  Deep-profiling overhead (obs.profile)", rows)
    for entry in rows:
        assert entry.ok, entry
