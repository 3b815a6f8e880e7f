"""Sizing trajectories: a budget sweep replays TILOS from the stage cache.

Greedy sizing under a move budget is prefix-closed, so the ``size``
stage records each run's committed moves and a later point with another
budget replays them (and extends them past their end).  Replay is a
pure speed-up: every point must equal an uncached run bit for bit,
library included, in any sweep order.
"""

import random

import pytest

from repro import obs
from repro.flows import FlowEngine, FlowError, run_flow_sweep
from repro.flows import cache as stage_cache
from repro.flows.registry import get_backend, load_builtin_backends
from repro.flows.stages import finalize
from repro.robust.guards import guarded_size_for_speed
from repro.sizing import tilos
from repro.sizing.logical_effort import SizingError

load_builtin_backends()

BITS = 4
BUDGETS = (12, 8, 5, 2)
ORDERS = {
    "descending": list(BUDGETS),
    "ascending": sorted(BUDGETS),
    "shuffled": random.Random(7).sample(BUDGETS, len(BUDGETS)),
}


def _point(style, moves, **knobs):
    """One flow run: its result minus stage records, and its library."""
    backend = get_backend(style)
    options = backend.options(bits=BITS, sizing_moves=moves, **knobs)
    ctx = FlowEngine(backend.graph).run(options, backend.default_tech)
    payload = finalize(ctx, backend.default_tech).to_dict()
    payload.pop("stages")
    return payload, [cell.name for cell in ctx["library"]]


def _uncached_point(style, moves):
    stage_cache.set_enabled(False)
    try:
        return _point(style, moves)
    finally:
        stage_cache.set_enabled(True)


def _steps():
    """Greedy steps that ran trials since ``obs.enable()``."""
    return obs.get_metrics().counter("sizing.tilos.steps").value()


@pytest.fixture
def metrics():
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


@pytest.fixture
def trajectory_calls(monkeypatch):
    """Every ``get_trajectory`` / ``put_trajectory`` call, in order."""
    calls = []
    for name in ("get_trajectory", "put_trajectory"):
        original = getattr(stage_cache.StageCache, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(stage_cache.StageCache, name, spy)
    return calls


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("style", ["asic", "structured", "custom"])
def test_budget_sweep_equals_uncached_runs(style, order, metrics):
    budgets = ORDERS[order]
    expected = {moves: _uncached_point(style, moves) for moves in budgets}
    obs.reset()
    for moves in budgets:
        assert _point(style, moves) == expected[moves], (style, moves)
    # Each budget moved as far as asked, and the sweep ran no more greedy
    # steps than its budgets' running maximum reached.
    assert [expected[m][0]["notes"]["sizing_moves"] for m in budgets] == \
        [float(m) for m in budgets]
    reach = [max(budgets[:i + 1]) for i in range(len(budgets))]
    assert _steps() == reach[-1]
    stats = stage_cache.stats()
    assert stats["trajectory_misses"] == 1
    assert stats["trajectory_hits"] == len(budgets) - 1


def test_lookups_are_not_stage_hits_or_misses():
    points = [get_backend("asic").options(bits=BITS, sizing_moves=moves)
              for moves in (12, 8, 5, 2)]
    run_flow_sweep(points)
    stats = stage_cache.stats()
    # map, place, cts hit on three points; everything else misses.
    assert (stats["hits"], stats["misses"]) == (9, 15)
    assert (stats["trajectory_hits"], stats["trajectory_misses"]) == (3, 1)
    obs.enable()
    try:
        stage_cache.publish()
        gauges = obs.get_metrics()
        assert gauges.gauge("flows.cache.trajectory_hits").value() == 3
        assert gauges.gauge("flows.cache.hits").value() == 9
    finally:
        obs.disable()
        obs.reset()


def test_size_span_reports_replayed_moves(metrics):
    _point("asic", 8)
    _point("asic", 5)
    _point("asic", 12)
    sizes = [span.attributes for span in obs.get_tracer().finished()
             if span.name == "flow.asic.size"]
    assert [(a["replayed_moves"], a["moves"]) for a in sizes] == \
        [(0, 8), (5, 5), (8, 12)]


class TestStoppedRuns:
    def _stopping_budget(self):
        """A budget the 4-bit ASIC flow cannot use up."""
        payload, _ = _uncached_point("asic", 500)
        moves = payload["notes"]["sizing_moves"]
        assert moves < 500
        return int(moves)

    def test_budget_above_a_stopped_run_runs_no_trials(self, metrics):
        used = self._stopping_budget()
        first = _point("asic", 500)
        obs.reset()
        again = _point("asic", 900)
        assert _steps() == 0
        assert obs.get_metrics().counter("par.session.trials").value() == 0
        assert again == first
        assert again[0]["notes"]["sizing_moves"] == used

    def test_stopped_run_is_marked_and_bounded_one_is_not(self):
        used = self._stopping_budget()
        stopped = self._trajectory(500)
        assert stopped.stopped and len(stopped.commits) == used
        bounded = self._trajectory(used)
        assert not bounded.stopped and len(bounded.commits) == used

    def _trajectory(self, moves):
        stage_cache.reset()
        _point("asic", moves)
        (trajectory,) = stage_cache.get_cache()._trajectories.values()
        return trajectory

    def test_budget_zero_sizes_nothing(self, metrics, trajectory_calls):
        _point("asic", 12)
        obs.reset()
        payload, _ = _point("asic", 0)
        assert payload == _uncached_point("asic", 0)[0]
        assert _steps() == 0
        assert trajectory_calls == ["get_trajectory", "put_trajectory"]


class TestFailures:
    def _sized_inputs(self, moves=0):
        """Module, library, clock and wire as the ASIC size stage sees them."""
        backend = get_backend("asic")
        ctx = FlowEngine(backend.graph).run(
            backend.options(bits=BITS, sizing_moves=moves),
            backend.default_tech, until="cts",
        )
        return ctx["module"], ctx["library"], ctx["clock"], ctx["wire"]

    def _cells(self, module):
        return {name: inst.cell_name
                for name, inst in module.instances.items()}

    def _fail_after(self, monkeypatch, steps):
        original = tilos._best_move
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) > steps:
                raise SizingError("injected sizing failure")
            return original(*args)

        monkeypatch.setattr(tilos, "_best_move", failing)

    def test_failed_run_records_nothing(self, monkeypatch):
        self._fail_after(monkeypatch, 3)
        backend = get_backend("asic")
        with pytest.raises(FlowError):
            FlowEngine(backend.graph).run(
                backend.options(bits=BITS, sizing_moves=8),
                backend.default_tech,
            )
        assert not stage_cache.get_cache()._trajectories
        assert stage_cache.stats()["trajectory_misses"] == 1

    def test_failed_extension_rolls_back_replayed_moves(self, monkeypatch):
        module, library, clock, wire = self._sized_inputs()
        before = self._cells(module)
        recorded = tilos.size_for_speed(module.clone(), library, clock,
                                        wire=wire, max_moves=3).trajectory
        self._fail_after(monkeypatch, 0)
        with pytest.raises(SizingError):
            guarded_size_for_speed(module, library, clock, wire=wire,
                                   max_moves=6, replay=recorded)
        assert self._cells(module) == before

    def test_replay_matches_a_direct_run(self):
        module, library, clock, wire = self._sized_inputs()
        direct = tilos.size_for_speed(module.clone(), library, clock,
                                      wire=wire, max_moves=7)
        longer = tilos.size_for_speed(module.clone(), library, clock,
                                      wire=wire, max_moves=10)
        replayed_module = module.clone()
        replayed = tilos.size_for_speed(replayed_module, library, clock,
                                        wire=wire, max_moves=7,
                                        replay=longer.trajectory)
        assert replayed.replayed_moves == 7
        assert replayed.trajectory is longer.trajectory
        for field in ("initial_period_ps", "final_period_ps", "moves",
                      "area_before_um2", "area_after_um2"):
            assert getattr(replayed, field) == getattr(direct, field)
        assert replayed.report.min_period_ps == direct.report.min_period_ps
        assert direct.trajectory.commits == longer.trajectory.commits[:7]


class TestCacheOff:
    def test_disabled_cache_never_reads_or_writes(self, trajectory_calls):
        stage_cache.set_enabled(False)
        try:
            _point("asic", 5)
            _point("asic", 3)
        finally:
            stage_cache.set_enabled(True)
        assert trajectory_calls == []

    def test_fault_runs_never_read_or_write(self, trajectory_calls):
        _point("asic", 5)
        del trajectory_calls[:]
        backend = get_backend("asic")
        options = backend.options(bits=BITS, sizing_moves=3,
                                  on_error="keep_going", fault="quote")
        ctx = FlowEngine(backend.graph).run(options, backend.default_tech)
        assert ctx.notes["sizing_moves"] == 3.0
        assert trajectory_calls == []


def test_two_worker_spill_sweep_equals_serial(tmp_path):
    points = [get_backend("custom").options(bits=BITS, sizing_moves=moves)
              for moves in (5, 12, 2, 8)]
    stage_cache.set_enabled(False)
    try:
        serial = run_flow_sweep(points)
    finally:
        stage_cache.set_enabled(True)
    cache_dir = tmp_path / "stages"
    pooled = run_flow_sweep(points, workers=2, cache_dir=str(cache_dir))

    def comparable(results):
        out = []
        for result in results:
            payload = result.to_dict()
            payload.pop("stages")
            out.append(payload)
        return out

    assert comparable(pooled) == comparable(serial)
    assert list(cache_dir.glob("*" + stage_cache.TRAJECTORY_SUFFIX))
