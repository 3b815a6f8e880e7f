"""Static timing analysis substrate: clocks, engine, FO4 metrics, reports."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.sta.array": (
        "ArrayCheckError", "CompiledTiming", "analyze_array", "batch_analyze",
        "clock_analyzer", "compile_timing", "monte_carlo_min_period_batched",
    ),
    "repro.sta.clocking": (
        "ASIC_SKEW_FRACTION", "CUSTOM_SKEW_FRACTION",
        "STRUCTURED_SKEW_FRACTION", "Clock", "ClockingError", "asic_clock",
        "custom_clock", "skew_speedup", "structured_clock",
    ),
    "repro.sta.engine": (
        "DEFAULT_INPUT_SLEW_PS", "ConvergenceError", "EndpointTiming",
        "HoldViolation", "PathCycleError", "PathStep", "TimingReport",
        "analyze", "solve_min_period",
    ),
    "repro.sta.fo4": ("fo4_depth", "fo4_logic_depth", "fo4_overhead"),
    "repro.sta.reports": ("format_comparison", "format_report"),
    "repro.sta.statistical": (
        "StatisticalReport", "analyze_statistical", "clark_max",
        "monte_carlo_min_period",
    ),
    "repro.sta.sequential": ("register_boundaries", "sequential_overhead_ps"),
    "repro.sta.timing_graph": ("TimingError", "TimingGraph", "WireParasitics"),
})
