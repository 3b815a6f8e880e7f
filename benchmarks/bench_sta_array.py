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
in microseconds per sample.  Beside it, ``bench.sta_array
.mc_draw_us_per_sample`` is the kernel's RNG floor: the best of
``MC_REPEATS`` bare ``standard_normal`` fills of the same samples at the
Monte Carlo's draw width, chunk by chunk into one reused buffer.

It also prices the kernels behind sizing, all on the registered 8-bit
ALU and in microseconds (best of several timed loops):

* ``bench.sta_array.propagate_us_b1`` / ``propagate_us_b16``: one
  ``CompiledTiming.propagate``, at width 1 with min arrivals (what a
  report or a period solve needs) and at width 16 without them (a TILOS
  move's lean trial sweep, each candidate column on its own row of
  :meth:`~repro.sta.array.CompiledTiming.coefficients`);
* ``bench.sta_array.compile_us``: one ``compile_timing``;
* ``bench.sizing.stage_us``: one cold candidate column
  (:meth:`~repro.par.session.ArrayTimingSession._stage` with its memo
  empty): the candidate's arcs and its input drivers' re-summed loads;
* ``bench.sizing.us_per_move``: one TILOS move -- stage the critical
  path's candidates, score them in one trial sweep, commit the best.
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
from repro.sizing.tilos import _best_move
from repro.sta import (
    analyze,
    asic_clock,
    monte_carlo_min_period,
    register_boundaries,
)
from repro.sta.array import MC_CHUNK, _mc_width, clock_analyzer, compile_timing
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS
from repro.tech import CMOS250_ASIC

MC_SAMPLES = 10_000
MC_REPEATS = 3
ANALYSIS_CLOCKS = 25
PROPAGATE_COLUMNS = 16
PROPAGATE_LOOPS = 200
PROPAGATE_REPEATS = 5
COMPILE_LOOPS = 20
STAGE_LOOPS = 50
SIZING_MOVES = 20


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

    draw_walls = []
    chunk = np.empty((MC_CHUNK, _mc_width(module, library)))
    for _ in range(MC_REPEATS):
        rng = np.random.default_rng(17)
        start = time.perf_counter()
        for c0 in range(0, MC_SAMPLES, MC_CHUNK):
            rng.standard_normal(out=chunk[:MC_SAMPLES - c0])
        draw_walls.append(time.perf_counter() - start)

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

    return (batched, sequential, batched_walls, draw_walls, sequential_s,
            array_reports, object_reports, analyze_array_s,
            analyze_object_s)


def test_sta_array(benchmark):
    (batched, sequential, batched_walls, draw_walls, sequential_s,
     array_reports, object_reports, analyze_array_s,
     analyze_object_s) = run_once(
        benchmark, _measure
    )
    batched_s = batched_walls[0]
    mc_us = min(batched_walls) / MC_SAMPLES * 1e6
    draw_us = min(draw_walls) / MC_SAMPLES * 1e6
    record_wall("sta_array.mc_batched", batched_s)
    record_value("sta_array.mc_us_per_sample", round(mc_us, 3))
    record_value("sta_array.mc_draw_us_per_sample", round(draw_us, 3))
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
          f"bitwise identical; best {mc_us:.1f} us/sample, "
          f"draw alone {draw_us:.1f})")
    print(f"{ANALYSIS_CLOCKS}-clock analysis sweep: compiled "
          f"{analyze_array_s:.3f} s vs object {analyze_object_s:.3f} s "
          f"({analyze_speedup:.1f}x)")

    rows = [
        row("batched 10k-sample Monte Carlo speedup", ">= 10x",
            mc_speedup, 10.0, 10000.0, fmt="{:.1f}x", host=True),
        row("compiled multi-clock analysis speedup", ">= 2x",
            analyze_speedup, 2.0, 10000.0, fmt="{:.1f}x",
            host=True),
    ]
    report("S2  Vectorized array STA (engine)", rows)
    for entry in rows:
        assert entry.ok, entry


def _best_us(run, loops: int, repeats: int = PROPAGATE_REPEATS) -> float:
    """Best-of-``repeats`` wall of one ``run()``, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            run()
        best = min(best, (time.perf_counter() - start) / loops)
    return best * 1e6


def _us_per_move(module, library, clock) -> float:
    """Best-of-N wall of one TILOS move from a fresh session, in us."""
    best = float("inf")
    for _ in range(PROPAGATE_REPEATS):
        session = ArrayTimingSession(module.clone(), library, clock)
        period = session.min_period_ps()
        moves = 0
        upsizes = {}
        start = time.perf_counter()
        while moves < SIZING_MOVES:
            move = _best_move(session, library, period, upsizes)
            if move is None:
                break
            session.commit(move[0], move[1])
            period = session.min_period_ps()
            moves += 1
        assert moves > 0
        best = min(best, (time.perf_counter() - start) / moves)
    return best * 1e6


def _measure_kernels():
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(WORKLOADS["alu"](8, library), library)
    clock = asic_clock(2000.0)
    session = ArrayTimingSession(module, library, clock)
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
    rows = compiled.coefficients(columns)
    b1 = _best_us(
        lambda: compiled.propagate(DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(1)),
        PROPAGATE_LOOPS,
    )
    b16 = _best_us(
        lambda: compiled.propagate(
            DEFAULT_INPUT_SLEW_PS, 0.0, np.ones(PROPAGATE_COLUMNS),
            rows, min_arrivals=False,
        ),
        PROPAGATE_LOOPS,
    )
    compile_us = _best_us(lambda: compile_timing(module, library),
                          COMPILE_LOOPS)

    def stage_cold():
        session._staged.clear()
        for inst, cell in moves[:PROPAGATE_COLUMNS]:
            session._stage(inst, cell)

    stage_us = _best_us(stage_cold, STAGE_LOOPS) / PROPAGATE_COLUMNS
    move_us = _us_per_move(module, library, clock)
    return b1, b16, compile_us, stage_us, move_us


def test_propagate_us(benchmark):
    b1, b16, compile_us, stage_us, move_us = run_once(
        benchmark, _measure_kernels)
    record_value("sta_array.propagate_us_b1", round(b1, 3))
    record_value("sta_array.propagate_us_b16", round(b16, 3))
    record_value("sta_array.compile_us", round(compile_us, 3))
    record_value("sizing.stage_us", round(stage_us, 3))
    record_value("sizing.us_per_move", round(move_us, 3))
    print()
    print(f"propagate: {b1:.0f} us at width 1, {b16:.0f} us at width "
          f"{PROPAGATE_COLUMNS} (lean); compile {compile_us:.0f} us; "
          f"cold staged column {stage_us:.1f} us; "
          f"TILOS move {move_us:.0f} us")
