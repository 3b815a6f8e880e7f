"""Process-variation substrate: components, Monte Carlo, binning, fabs."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.variation.binning": (
        "AccessGap", "SpeedBin", "access_gap", "asic_worst_case_quote",
        "bin_population", "custom_flagship_frequency", "speed_tested_quote",
    ),
    "repro.variation.components": (
        "MATURE_PROCESS", "NEW_PROCESS", "VariationComponents",
        "VariationError", "expected_bin_spread",
    ),
    "repro.variation.fabs": (
        "FabProfile", "accessibility_penalty", "best_accessible_fab",
        "default_foundry_set", "fab_distributions", "fab_spread",
    ),
    "repro.variation.overclocking": (
        "BinningOutcome", "ShippedPart", "overclocking_headroom",
        "ship_against_demand",
    ),
    "repro.variation.montecarlo": (
        "SpeedDistribution", "maturity_trend", "sample_chip_speeds",
    ),
})
