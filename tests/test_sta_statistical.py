"""Tests for statistical STA: Clark propagation vs Monte Carlo truth."""

import math

import numpy as np
import pytest

from repro.cells import poor_asic_library, rich_asic_library
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.flows.asic import WORKLOADS
from repro.netlist import Module
from repro.sta import (
    TimingError,
    asic_clock,
    custom_clock,
    register_boundaries,
)
from repro.sta.statistical import (
    analyze_statistical,
    clark_max,
    monte_carlo_min_period,
)
from repro.tech import CMOS250_ASIC

RICH = rich_asic_library(CMOS250_ASIC)
CLK = asic_clock(30000.0)


@pytest.fixture(scope="module")
def registered():
    return register_boundaries(kogge_stone_adder(8, RICH), RICH)


class TestClarkMax:
    def test_degenerate_equals_max(self):
        mean, var = clark_max(10.0, 0.0, 4.0, 0.0)
        assert mean == pytest.approx(10.0, abs=1e-6)
        assert var == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_case(self):
        # max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi.
        mean, var = clark_max(0.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-6)
        assert var == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-6)

    def test_dominant_input_passes_through(self):
        mean, var = clark_max(100.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(100.0, abs=1e-3)
        assert var == pytest.approx(1.0, abs=1e-2)

    def test_against_sampling(self):
        rng = np.random.default_rng(3)
        a = rng.normal(50.0, 4.0, 200000)
        b = rng.normal(47.0, 6.0, 200000)
        sampled = np.maximum(a, b)
        mean, var = clark_max(50.0, 16.0, 47.0, 36.0)
        assert mean == pytest.approx(sampled.mean(), rel=0.01)
        assert math.sqrt(var) == pytest.approx(sampled.std(), rel=0.03)


class TestStatisticalAnalysis:
    def test_zero_sigma_matches_nominal(self, registered):
        report = analyze_statistical(registered, RICH, CLK, sigma_fraction=0.0)
        assert report.sigma_period_ps == pytest.approx(0.0, abs=1e-9)
        assert report.mean_period_ps == pytest.approx(
            report.nominal_period_ps, rel=1e-9
        )

    def test_mean_exceeds_nominal(self, registered):
        # Max-of-paths always shifts the mean upward.
        report = analyze_statistical(registered, RICH, CLK, sigma_fraction=0.08)
        assert report.mean_period_ps > report.nominal_period_ps
        assert 0.0 < report.mean_shift_fraction < 0.25

    def test_sigma_grows_with_gate_sigma(self, registered):
        small = analyze_statistical(registered, RICH, CLK, sigma_fraction=0.03)
        large = analyze_statistical(registered, RICH, CLK, sigma_fraction=0.10)
        assert large.sigma_period_ps > small.sigma_period_ps

    def test_matches_monte_carlo(self, registered):
        sigma = 0.08
        report = analyze_statistical(registered, RICH, CLK,
                                     sigma_fraction=sigma)
        samples = monte_carlo_min_period(
            registered, RICH, CLK, sigma_fraction=sigma, samples=400, seed=7
        )
        assert report.mean_period_ps == pytest.approx(
            samples.mean(), rel=0.03
        )
        # Clark underestimates tail correlations; sigma within 40%.
        assert report.sigma_period_ps == pytest.approx(
            samples.std(), rel=0.4
        )

    def test_yield_curve_monotone(self, registered):
        report = analyze_statistical(registered, RICH, CLK, sigma_fraction=0.08)
        p50 = report.period_at_yield(0.5)
        p99 = report.period_at_yield(0.99)
        assert p99 > p50
        assert report.yield_at_period(p99) == pytest.approx(0.99, abs=0.01)
        assert report.yield_at_period(p50) == pytest.approx(0.50, abs=0.01)

    def test_longer_paths_larger_relative_mean_shift_than_sigma(self):
        # Independent per-gate variation averages out along a path
        # (sigma/mean shrinks ~1/sqrt(depth)) but the max over parallel
        # paths shifts the mean up: the canonical SSTA result.
        from repro.sta import Clock

        # Zero-skew clock so the (deterministic) skew does not dominate
        # the relative numbers.
        clk = Clock("c", 30000.0)
        short = register_boundaries(ripple_carry_adder(2, RICH), RICH)
        long = register_boundaries(ripple_carry_adder(16, RICH), RICH)
        r_short = analyze_statistical(short, RICH, clk, sigma_fraction=0.08)
        r_long = analyze_statistical(long, RICH, clk, sigma_fraction=0.08)
        rel_sigma_short = r_short.sigma_period_ps / r_short.mean_period_ps
        rel_sigma_long = r_long.sigma_period_ps / r_long.mean_period_ps
        assert rel_sigma_long < rel_sigma_short

    def test_validation(self, registered):
        with pytest.raises(TimingError):
            analyze_statistical(registered, RICH, CLK, sigma_fraction=0.7)
        with pytest.raises(TimingError):
            monte_carlo_min_period(registered, RICH, CLK, samples=0)
        report = analyze_statistical(registered, RICH, CLK)
        with pytest.raises(TimingError):
            report.period_at_yield(1.5)


class TestNominalIsZeroSigmaMonteCarlo:
    """The Clark walk's deterministic arrivals are the sigma = 0 sample."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_library_and_clock(self, workload):
        poor = poor_asic_library(CMOS250_ASIC)
        for bits in (4, 8):
            for lib in (RICH, poor):
                base = WORKLOADS[workload](bits, lib)
                # The custom clock borrows, so capture with latches there.
                for clk, latches in ((asic_clock(3000.0), False),
                                     (custom_clock(3000.0), True)):
                    module = register_boundaries(
                        base.clone(), lib, use_latches=latches
                    )
                    sequential = monte_carlo_min_period(
                        module, lib, clk, sigma_fraction=0.0, samples=1,
                        batched=False,
                    )[0]
                    batched = monte_carlo_min_period(
                        module, lib, clk, sigma_fraction=0.0, samples=1,
                    )[0]
                    assert batched == sequential
                    for sigma in (0.0, 0.12):
                        report = analyze_statistical(
                            module, lib, clk, sigma_fraction=sigma
                        )
                        assert report.nominal_period_ps == sequential


def _undriven_endpoint(kind: str) -> Module:
    """A module whose one endpoint net has no driver."""
    module = Module("m")
    clk = module.add_input("clk")
    module.add_input("a")
    module.add_instance("g", "INV_X1", inputs={"A": "a"},
                        outputs={"Y": "w"})
    if kind == "port":
        module.add_output("ghost")
    else:
        ff = RICH.flip_flop()
        module.add_instance(
            "r", ff.name,
            inputs={"D": "ghost", ff.sequential.clock_pin: clk},
            outputs={ff.output: "q"},
        )
    return module


class TestSequentialMonteCarloErrors:
    @pytest.mark.parametrize("kind", ["port", "register"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_undriven_endpoint_is_a_raw_key_error(self, kind, batched):
        module = _undriven_endpoint(kind)
        with pytest.raises(KeyError, match="^'ghost'$"):
            monte_carlo_min_period(module, RICH, CLK, samples=3,
                                   batched=batched)
        with pytest.raises(TimingError, match="undriven"):
            analyze_statistical(module, RICH, CLK)

    @pytest.mark.parametrize("kind", ["port", "register"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_negative_sigma_fails_at_the_first_draw(self, kind, batched):
        module = _undriven_endpoint(kind)
        with pytest.raises(ValueError, match="^scale < 0$"):
            monte_carlo_min_period(module, RICH, CLK, sigma_fraction=-0.05,
                                   samples=3, batched=batched)
