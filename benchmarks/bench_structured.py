"""Spectrum -- the structured-ASIC point between ASIC and custom.

The paper's Section 2 survey treats ASIC and custom as the endpoints
of a methodology spectrum.  The structured backend implements the
middle point (prefab slot fabric, characterised fixed H-tree,
speed-binned quoting); this bench asserts it lands *between* the
endpoints on every timing axis while paying the prefab area penalty,
and that the classic asic:custom decomposition is unchanged by the
registry refactor.

It also prices the annealer kernel both placement styles share: wall
per proposed move of the row-grid swap problem and of the fabric slot
problem, on the flows' registered 8-bit ALU.  They land in
``BENCH_paperbench.json`` as ``bench.anneal.place_us_per_move`` /
``bench.anneal.assign_us_per_move`` (best of three anneals).
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperbench import record_value, report, row, run_once

from repro.cells import rich_asic_library
from repro.core import analyze_multi_gap
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
    run_asic_flow,
    run_custom_flow,
    run_structured_flow,
)
from repro.flows.asic import WORKLOADS
from repro.optimize import anneal
from repro.physical import assign_slots, fabric_for, place
from repro.physical.fabric import _SlotMoves
from repro.physical.placement import _PositionSwaps
from repro.sta import register_boundaries
from repro.tech import CMOS250_ASIC

BITS = 8
ANNEAL_REPEATS = 3


def _measure():
    asic = run_asic_flow(AsicFlowOptions(bits=BITS, sizing_moves=15))
    structured = run_structured_flow(
        StructuredFlowOptions(bits=BITS, sizing_moves=15)
    )
    custom = run_custom_flow(
        CustomFlowOptions(bits=BITS, target_cycle_fo4=14.0,
                          sizing_moves=25)
    )
    return analyze_multi_gap([asic, structured, custom])


def test_structured_between_endpoints(benchmark):
    gap = run_once(benchmark, _measure)
    asic, structured, custom = gap.results
    s = gap.report_for("structured")
    c = gap.report_for("custom")

    rows = [
        row("custom over asic, quoted (registry path)", "6-8x observed",
            c.total_ratio, 5.0, 20.0),
        row("structured over asic, quoted", "between 1x and custom",
            s.total_ratio, 1.2, 0.8 * c.total_ratio),
        row("structured cycle time vs asic", "shorter",
            structured.min_period_ps / asic.min_period_ps, 0.30, 0.99),
        row("structured cycle time vs custom", "longer",
            structured.min_period_ps / custom.min_period_ps, 1.05, 20.0),
        row("structured quoting factor vs asic", "bins, under custom 1.9x",
            s.quoting_factor, 1.1, 1.9),
        row("structured technology access", "same ASIC process",
            s.technology_factor, 0.99, 1.01),
        row("prefab area penalty (master vs cells)", ">10x die",
            structured.area_um2 / asic.area_um2, 10.0, 1000.0),
    ]
    report(
        f"SPECTRUM  structured-ASIC middle point ({BITS}-bit ALU)", rows
    )
    for entry in rows:
        assert entry.ok, entry


def _us_per_move(make_problem, temperature: float) -> float:
    """Best-of-N annealer wall per proposed move, in microseconds."""
    best = float("inf")
    for _ in range(ANNEAL_REPEATS):
        problem = make_problem()
        steps = 40 * len(problem.names)
        start = time.perf_counter()
        anneal(problem, random.Random(1), steps, temperature)
        best = min(best, (time.perf_counter() - start) / steps)
    return best * 1e6


def _measure_annealer():
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(WORKLOADS["alu"](BITS, library), library)
    fabric = fabric_for(module, library)
    seq_names = library.sequential_cell_names()
    kind_of = {
        inst.name: "seq" if inst.cell_name in seq_names else "logic"
        for inst in module.iter_instances()
    }
    pitch = place(module, library, iterations=0).pitch_um
    place_us = _us_per_move(
        lambda: _PositionSwaps(place(module, library, iterations=0)),
        pitch * 4.0,
    )
    assign_us = _us_per_move(
        lambda: _SlotMoves(
            assign_slots(module, library, fabric, refine=False), kind_of
        ),
        fabric.pitch_um * 4.0,
    )
    return place_us, assign_us


def test_annealer_us_per_move(benchmark):
    place_us, assign_us = run_once(benchmark, _measure_annealer)
    record_value("anneal.place_us_per_move", round(place_us, 3))
    record_value("anneal.assign_us_per_move", round(assign_us, 3))
