"""Unit tests for the solver convergence and finiteness guards."""

import math

import pytest

from repro import obs
from repro.cells import rich_asic_library
from repro.cells.delay import LinearDelayArc
from repro.datapath import ripple_carry_adder
from repro.robust import (
    GuardError,
    NonFiniteError,
    disable_guard,
    enable_all_guards,
    ensure_finite,
    guard_enabled,
    guarded_size_for_speed,
    guarded_solve_min_period,
)
from repro.sizing import SizingError
from repro.sta import ConvergenceError, TimingError, asic_clock
from repro.sta import register_boundaries, solve_min_period
from repro.tech import CMOS250_ASIC

CLK = asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps)


@pytest.fixture(autouse=True)
def _restore_guards():
    yield
    enable_all_guards()


def adder(bits=4):
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(ripple_carry_adder(bits, library), library)
    return module, library


class TestGuardRegistry:
    def test_guards_default_enabled(self):
        for name in ("finite", "retry", "bisection"):
            assert guard_enabled(name)

    def test_disable_and_restore(self):
        disable_guard("finite")
        assert not guard_enabled("finite")
        enable_all_guards()
        assert guard_enabled("finite")

    def test_unknown_guard_rejected(self):
        with pytest.raises(GuardError, match="unknown guard"):
            disable_guard("telepathy")


class TestEnsureFinite:
    def test_accepts_finite(self):
        ensure_finite("ctx", a=1.0, b=-2.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteError, match="ctx"):
            ensure_finite("ctx", value=bad)

    def test_disabled_guard_passes_nan(self):
        disable_guard("finite")
        ensure_finite("ctx", value=float("nan"))  # must not raise


class TestGuardedSolve:
    def test_matches_plain_solver_on_healthy_input(self):
        module, library = adder()
        plain = solve_min_period(module, library, CLK)
        guarded = guarded_solve_min_period(module, library, CLK)
        assert guarded.min_period_ps == pytest.approx(plain.min_period_ps)

    def test_bisection_fallback_recovers_period(self):
        module, library = adder()
        reference = solve_min_period(module, library, CLK)
        # max_iterations=0 makes the fixed-point solver stall
        # immediately, forcing the escalation ladder to the bisection.
        report = guarded_solve_min_period(
            module, library, CLK, max_iterations=0, max_retries=1,
        )
        assert report.min_period_ps == pytest.approx(
            reference.min_period_ps, rel=0.01
        )

    def test_retry_relaxes_tolerance(self):
        module, library = adder()
        obs.enable()
        try:
            report = guarded_solve_min_period(
                module, library, CLK, max_iterations=1,
                tolerance_ps=1e-9, max_retries=6,
            )
            retries = obs.get_metrics().counter(
                "robust.guard.retries"
            ).value()
        finally:
            obs.disable()
        assert math.isfinite(report.min_period_ps)
        assert retries >= 1

    def test_bisection_disabled_propagates_convergence_error(self):
        module, library = adder()
        disable_guard("bisection")
        with pytest.raises(ConvergenceError):
            guarded_solve_min_period(
                module, library, CLK, max_iterations=0, max_retries=0,
            )

    def test_nan_library_raises_typed_error(self):
        module, library = adder()
        cell_name = next(iter(
            inst.cell_name for inst in module.iter_instances()
            if not library.get(inst.cell_name).is_sequential
        ))
        cell = library.get(cell_name)
        pin = sorted(cell.arcs)[0]
        cell.arcs[pin] = LinearDelayArc(parasitic_ps=float("nan"),
                                        effort_ps_per_ff=1.0)
        with pytest.raises((TimingError, NonFiniteError)):
            guarded_solve_min_period(module, library, CLK)

    def test_invalid_retry_policy_rejected(self):
        module, library = adder()
        with pytest.raises(GuardError, match="retry policy"):
            guarded_solve_min_period(module, library, CLK,
                                     max_retries=-1)


class TestGuardedSizing:
    def test_sizes_in_place_like_plain_sizing(self):
        module, library = adder()
        result = guarded_size_for_speed(module, library, CLK,
                                        max_moves=5)
        assert result.moves >= 0
        if result.moves:
            # Accepted swaps must be visible on the caller's module.
            assert any(
                "_X" in inst.cell_name
                for inst in module.iter_instances()
            )

    def test_rejected_pass_is_rolled_back(self, monkeypatch):
        """A pass that sized the netlist but fails its finiteness gate
        puts every cell back."""
        from repro.robust import guards

        module, library = adder()
        before = {
            inst.name: inst.cell_name for inst in module.iter_instances()
        }
        sized = []

        def reject(context, **values):
            sized.append(any(
                inst.cell_name != before[inst.name]
                for inst in module.iter_instances()
            ))
            raise NonFiniteError("rejected for the test")

        monkeypatch.setattr(guards, "ensure_finite", reject)
        with pytest.raises(NonFiniteError):
            guarded_size_for_speed(module, library, CLK, max_moves=5)
        assert sized == [True]
        assert {
            inst.name: inst.cell_name for inst in module.iter_instances()
        } == before

    def test_failed_sizing_leaves_module_untouched(self):
        module, library = adder()
        before = {
            inst.name: inst.cell_name
            for inst in module.iter_instances()
        }
        with pytest.raises(SizingError):
            guarded_size_for_speed(module, library, CLK, max_moves=-1)
        after = {
            inst.name: inst.cell_name
            for inst in module.iter_instances()
        }
        assert after == before
