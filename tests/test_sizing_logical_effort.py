"""Unit tests for repro.sizing.logical_effort and discrete helpers."""

import math

import pytest

from repro.sizing import (
    BEST_STAGE_EFFORT,
    PathStage,
    SizingError,
    best_stage_count,
    chain_delay_tau,
    delay_with_stage_count,
    geometric_drive_ladder,
    optimize_path,
    sizing_speedup_bound,
    worst_case_snap_penalty,
)


def inverter_stage():
    return PathStage(logical_effort=1.0, parasitic=1.0)


class TestOptimizePath:
    def test_single_inverter_fo4(self):
        # One inverter driving 4x its input cap: delay = 4 + 1 = 5 tau,
        # i.e. exactly one FO4.
        sol = optimize_path([inverter_stage()], electrical_effort=4.0)
        assert sol.delay_tau == pytest.approx(5.0)
        assert sol.stage_effort == pytest.approx(4.0)

    def test_textbook_three_stage_example(self):
        # Three identical inverters driving H=64: f = 4 per stage,
        # D = 3*4 + 3 = 15 tau.
        sol = optimize_path([inverter_stage()] * 3, electrical_effort=64.0)
        assert sol.stage_effort == pytest.approx(4.0)
        assert sol.delay_tau == pytest.approx(15.0)

    def test_optimal_caps_geometric(self):
        sol = optimize_path([inverter_stage()] * 3, electrical_effort=64.0)
        assert sol.input_caps[0] == pytest.approx(1.0)
        assert sol.input_caps[1] == pytest.approx(4.0)
        assert sol.input_caps[2] == pytest.approx(16.0)

    def test_nand_path_effort(self):
        stages = [
            PathStage(logical_effort=4 / 3, parasitic=2.0),
            PathStage(logical_effort=1.0, parasitic=1.0),
        ]
        sol = optimize_path(stages, electrical_effort=6.0)
        assert sol.path_effort == pytest.approx(8.0)
        assert sol.delay_tau == pytest.approx(
            2 * math.sqrt(8.0) + 3.0
        )

    def test_branching_multiplies_effort(self):
        plain = optimize_path([inverter_stage()] * 2, 4.0)
        branchy = optimize_path(
            [PathStage(1.0, 1.0, branching=3.0), inverter_stage()], 4.0
        )
        assert branchy.path_effort == pytest.approx(3 * plain.path_effort)
        assert branchy.delay_tau > plain.delay_tau

    def test_equal_stage_effort_beats_unbalanced(self):
        # A 2-stage path with H=16: optimal f=4 each gives 8+2 = 10 tau;
        # the unbalanced 2-then-8 split gives 10+2 = 12 tau.
        sol = optimize_path([inverter_stage()] * 2, 16.0)
        assert sol.delay_tau == pytest.approx(10.0)
        unbalanced = (2.0 + 1.0) + (8.0 + 1.0)
        assert sol.delay_tau < unbalanced

    def test_any_iterable_of_stages_gives_the_same_solution(self):
        stages = [PathStage(1.0, 1.0, branching=3.0), inverter_stage()]
        expected = optimize_path(stages, 4.0)
        assert optimize_path(tuple(stages), 4.0) == expected
        assert optimize_path(iter(stages), 4.0) == expected
        assert optimize_path((s for s in stages), electrical_effort=4.0) == (
            expected
        )

    def test_empty_generator_is_a_sizing_error(self):
        # A generator is truthy even when empty, so the stages are
        # materialised before the emptiness check.
        with pytest.raises(SizingError, match="no stages"):
            optimize_path((s for s in []), 4.0)

    def test_validation(self):
        with pytest.raises(SizingError):
            optimize_path([], 4.0)
        with pytest.raises(SizingError):
            optimize_path([inverter_stage()], -1.0)
        with pytest.raises(SizingError):
            PathStage(logical_effort=0.0, parasitic=1.0)
        with pytest.raises(SizingError):
            PathStage(logical_effort=1.0, parasitic=1.0, branching=0.5)


class TestStageCounts:
    def test_best_stage_effort_constant(self):
        assert BEST_STAGE_EFFORT == pytest.approx(3.59, abs=0.05)

    def test_best_stage_count_grows_with_effort(self):
        assert best_stage_count(4.0) == 1
        assert best_stage_count(64.0) in (3, 4)
        assert best_stage_count(4.0**6) > best_stage_count(4.0**3)

    def test_delay_curve_u_shaped(self):
        effort = 256.0
        delays = [delay_with_stage_count(effort, n) for n in range(1, 10)]
        best = min(range(len(delays)), key=lambda i: delays[i])
        assert 0 < best < len(delays) - 1  # interior minimum

    def test_chain_delay(self):
        assert chain_delay_tau(4, 4.0) == pytest.approx(20.0)
        with pytest.raises(SizingError):
            chain_delay_tau(0, 4.0)

    def test_speedup_bound(self):
        stages = [inverter_stage()] * 2
        bound = sizing_speedup_bound(stages, 16.0, actual_delay_tau=12.0)
        assert bound == pytest.approx(1.2)
        with pytest.raises(SizingError):
            sizing_speedup_bound(stages, 16.0, actual_delay_tau=5.0)


class TestDriveLadders:
    def test_geometric_ladder(self):
        ladder = geometric_drive_ladder(5, 1.0, 16.0)
        assert len(ladder) == 5
        assert ladder[0] == pytest.approx(1.0)
        assert ladder[-1] == pytest.approx(16.0)
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_snap_penalty_shrinks_with_granularity(self):
        coarse = worst_case_snap_penalty(4.0)   # 2-drive ladder, r=4
        fine = worst_case_snap_penalty(1.5)     # 8-drive ladder class
        assert coarse > fine
        # The paper's 2-7% band corresponds to rich ladders.
        assert 0.02 < fine < 0.25
        with pytest.raises(SizingError):
            worst_case_snap_penalty(1.0)

    def test_single_drive_ladder(self):
        assert geometric_drive_ladder(1) == (1.0,)
        with pytest.raises(SizingError):
            geometric_drive_ladder(0)
