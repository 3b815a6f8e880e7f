"""Array STA engine: batched Monte Carlo and analysis throughput.

The vectorized engine's whole claim is wall time without any numeric
drift: one compiled level sweep replaces a Python propagation, and a
10k-sample Monte Carlo runs as chunked matrix passes instead of 10k
sequential propagations.  This benchmark prices both against the object
engine -- the batched MC must be at least 10x faster AND bit-for-bit
identical to the sequential sampler, and a 25-clock analysis sweep
through one compiled ``clock_analyzer`` must beat 25 object analyses.

Wall times land in ``BENCH_paperbench.json`` as
``bench.sta_array.mc_batched.s`` / ``bench.sta_array.mc_sequential.s``
/ ``bench.sta_array.analyze_array.s`` / ``bench.sta_array
.analyze_object.s``.  The Monte Carlo kernel row
``bench.sta_array.mc_us_per_sample`` is the best of
``MC_REPEATS`` batched runs (the first is the ``mc_batched.s`` wall),
in microseconds per sample.

It also prices the sweep kernel behind every sizing move: microseconds
per ``CompiledTiming.propagate`` on the registered 8-bit ALU, at width
1 (a commit or single trial) and width 16 (a TILOS move's candidate
columns as :class:`~repro.sta.array.ArcOverrides`).  They land as
``bench.sta_array.propagate_us_b1`` / ``propagate_us_b16`` (best of
several timed loops).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from paperbench import record_value, record_wall, report, row, run_once

from repro.cells import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.par.session import ArrayTimingSession
from repro.sta import (
    analyze,
    asic_clock,
    monte_carlo_min_period,
    register_boundaries,
)
from repro.sta.array import ArcOverrides, clock_analyzer
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS
from repro.tech import CMOS250_ASIC

MC_SAMPLES = 10_000
MC_REPEATS = 3
ANALYSIS_CLOCKS = 25
PROPAGATE_COLUMNS = 16
PROPAGATE_LOOPS = 200
PROPAGATE_REPEATS = 5


def _measure():
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(WORKLOADS["alu"](8, library), library)
    clock = asic_clock(2000.0)

    batched_walls = []
    for _ in range(MC_REPEATS):
        start = time.perf_counter()
        batched = monte_carlo_min_period(
            module, library, clock, samples=MC_SAMPLES, seed=17
        )
        batched_walls.append(time.perf_counter() - start)

    start = time.perf_counter()
    sequential = monte_carlo_min_period(
        module, library, clock, samples=MC_SAMPLES, seed=17, batched=False
    )
    sequential_s = time.perf_counter() - start

    run = clock_analyzer(module, library)
    periods = [1500.0 + 23.0 * i for i in range(ANALYSIS_CLOCKS)]
    start = time.perf_counter()
    array_reports = [run(clock.with_period(p)) for p in periods]
    analyze_array_s = time.perf_counter() - start

    start = time.perf_counter()
    object_reports = [
        analyze(module, library, clock.with_period(p)) for p in periods
    ]
    analyze_object_s = time.perf_counter() - start

    return (batched, sequential, batched_walls, sequential_s,
            array_reports, object_reports, analyze_array_s,
            analyze_object_s)


def test_sta_array(benchmark):
    (batched, sequential, batched_walls, sequential_s, array_reports,
     object_reports, analyze_array_s, analyze_object_s) = run_once(
        benchmark, _measure
    )
    batched_s = batched_walls[0]
    mc_us = min(batched_walls) / MC_SAMPLES * 1e6
    record_wall("sta_array.mc_batched", batched_s)
    record_value("sta_array.mc_us_per_sample", round(mc_us, 3))
    record_wall("sta_array.mc_sequential", sequential_s)
    record_wall("sta_array.analyze_array", analyze_array_s)
    record_wall("sta_array.analyze_object", analyze_object_s)

    # Speed without drift: the batched population is the sequential one.
    assert np.array_equal(batched, sequential)
    for fast, slow in zip(array_reports, object_reports):
        assert fast.min_period_ps == slow.min_period_ps

    mc_speedup = sequential_s / batched_s
    analyze_speedup = analyze_object_s / analyze_array_s
    print()
    print(f"{MC_SAMPLES}-sample MC: batched {batched_s:.3f} s vs "
          f"sequential {sequential_s:.3f} s ({mc_speedup:.1f}x, "
          f"bitwise identical; best {mc_us:.1f} us/sample)")
    print(f"{ANALYSIS_CLOCKS}-clock analysis sweep: compiled "
          f"{analyze_array_s:.3f} s vs object {analyze_object_s:.3f} s "
          f"({analyze_speedup:.1f}x)")

    rows = [
        row("batched 10k-sample Monte Carlo speedup", ">= 10x",
            mc_speedup, 10.0, 10000.0, fmt="{:.1f}x"),
        row("compiled multi-clock analysis speedup", ">= 2x",
            analyze_speedup, 2.0, 10000.0, fmt="{:.1f}x"),
    ]
    report("S2  Vectorized array STA (engine)", rows)
    for entry in rows:
        assert entry.ok, entry


def _us_per_propagate(compiled, derates, overrides) -> float:
    """Best-of-N wall of one propagate, in microseconds."""
    best = float("inf")
    for _ in range(PROPAGATE_REPEATS):
        start = time.perf_counter()
        for _ in range(PROPAGATE_LOOPS):
            compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, derates, overrides)
        best = min(best, (time.perf_counter() - start) / PROPAGATE_LOOPS)
    return best * 1e6


def _measure_propagate():
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(WORKLOADS["alu"](8, library), library)
    session = ArrayTimingSession(module, library, asic_clock(2000.0))
    compiled = session._compiled
    moves = []
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            continue
        stronger = [c for c in library.drives_of(cell.base_name)
                    if c.drive > cell.drive]
        if stronger:
            moves.append((inst.name, stronger[0].name))
    columns = [session._stage(i, c) for i, c in moves[:PROPAGATE_COLUMNS]]
    assert len(columns) == PROPAGATE_COLUMNS
    b1 = _us_per_propagate(compiled, np.ones(1), None)
    b16 = _us_per_propagate(
        compiled, np.ones(PROPAGATE_COLUMNS),
        ArcOverrides(compiled, columns),
    )
    return b1, b16


def test_propagate_us(benchmark):
    b1, b16 = run_once(benchmark, _measure_propagate)
    record_value("sta_array.propagate_us_b1", round(b1, 3))
    record_value("sta_array.propagate_us_b16", round(b16, 3))
    print()
    print(f"propagate: {b1:.0f} us at width 1, {b16:.0f} us at width "
          f"{PROPAGATE_COLUMNS}")
