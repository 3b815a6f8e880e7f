"""Golden-result regression: the engine refactor changed no numbers.

The fixtures under ``tests/golden/`` were generated by the pre-engine
flow implementations (straight-line functions with hand-wired obs and
robust plumbing).  The engine-based flows must reproduce them
bit-identically -- same frequencies, same notes, same diagnostics --
modulo the ``stages`` key, which the old code did not emit.

If an intentional modelling change invalidates these, regenerate the
JSON files with the script documented in DESIGN.md and say so in the
commit message.

``structured_alu6`` post-dates the engine refactor: it pins the
structured-ASIC backend's result at its introduction, so later
refactors of the fabric/assignment/CTS models are held to the same
bit-identical standard as the original two flows.  The
``<style>_degraded_<stage>`` cases pin each style's fallback path with
a fault injected at one stage; all but ``asic_degraded_size`` were
generated before the styles came to share one set of recover hooks
and one result finalizer.

The goldens hold on every supported interpreter: Python 3.12 made the
built-in ``sum()`` compensate float rounding, so the flows' float totals
are left-to-right folds instead (``repro._fold.fold_sum``), and
:func:`test_flow_matches_golden_under_compensated_sum` replays the
flows with 3.12's ``sum()`` swapped in.
"""

import builtins
import functools
import json
import math
import operator
import pathlib

import pytest

from repro._fold import fold_sum
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
    run_asic_flow,
    run_custom_flow,
    run_structured_flow,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "asic_alu6": (
        run_asic_flow,
        AsicFlowOptions(bits=6, sizing_moves=10),
    ),
    "asic_adder_poor": (
        run_asic_flow,
        AsicFlowOptions(
            workload="adder_kogge_stone", bits=8, pipeline_stages=2,
            rich_library=False, careful_placement=False, sizing_moves=5,
            speed_test=True, seed=3,
        ),
    ),
    "structured_alu6": (
        run_structured_flow,
        StructuredFlowOptions(bits=6, sizing_moves=10),
    ),
    "custom_alu6": (
        run_custom_flow,
        CustomFlowOptions(bits=6, pipeline_stages=3, sizing_moves=10),
    ),
    "custom_target_fo4": (
        run_custom_flow,
        CustomFlowOptions(bits=4, target_cycle_fo4=14.0, sizing_moves=8,
                          flagship_silicon=False, use_domino=False),
    ),
}

#: ``<style>_degraded_<stage>``: every style under ``keep_going`` with a
#: fault at each stage that has a fallback (``map`` is critical).
CASES.update(
    (f"{style}_degraded_{stage}",
     (run, options(bits=4, sizing_moves=5, on_error="keep_going",
                   fault=stage)))
    for style, run, options in (
        ("asic", run_asic_flow, AsicFlowOptions),
        ("structured", run_structured_flow, StructuredFlowOptions),
        ("custom", run_custom_flow, CustomFlowOptions),
    )
    for stage in ("place", "cts", "size", "sta", "quote")
)


def compensated_sum(iterable, start=0):
    """CPython 3.12's ``sum()``: Neumaier-compensated over float items.

    Exact ints take the integer path until the running total turns into
    a float; from then on a float item is added with Neumaier's
    compensation, an int plainly, and the compensation is added once at
    the end (or before the first item of another type).
    """
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif type(item) is int:
            total += item
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for rest in items:
                total = total + rest
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_rounds_like_python_312():
    # Values whose naive left fold differs from the compensated total.
    # The fold is written out: from 3.12 on, the built-in sum() is the
    # compensated one.
    assert functools.reduce(operator.add, [0.1] * 10, 0) == (
        0.9999999999999999)
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 0.1, 0.2]) == 1.3
    # The float that leaves the int path is added plainly.
    assert compensated_sum([9, -0.27410736691851695, -6]) == (
        9 - 0.27410736691851695 - 6)
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([], 0.5) == 0.5


def test_fold_sum_adds_left_to_right():
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert fold_sum([0.1] * 10, 0.5) == functools.reduce(
        operator.add, [0.1] * 10, 0.5)
    assert fold_sum([]) == 0 and type(fold_sum([])) is int  # as sum([])


def run_case(name):
    run, options = CASES[name]
    result = run(options)
    payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    payload.pop("stages")
    return payload


@pytest.mark.parametrize("name", sorted(CASES))
def test_flow_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert run_case(name) == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_flow_matches_golden_under_compensated_sum(name, monkeypatch):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    payload = run_case(name)
    monkeypatch.undo()
    assert payload == golden
