"""Micro-architecture substrate: pipelining, retiming, CPI models."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.pipeline.microarch": (
        "ALPHA_21264A", "IBM_POWERPC_1GHZ", "MicroArchitecture",
        "TENSILICA_XTENSA", "TYPICAL_WORKLOAD", "UNPIPELINED_ASIC", "Workload",
        "best_pipeline_depth",
    ),
    "repro.pipeline.overheads": (
        "ASIC_OVERHEAD_FRACTION", "CUSTOM_OVERHEAD_FRACTION", "PipelineBudget",
        "PipelineError", "ideal_pipeline_speedup", "max_useful_stages",
        "overhead_fraction_at", "pipeline_speedup_fo4",
    ),
    "repro.pipeline.balance": (
        "BalanceReport", "balanced_stage_assignment", "estimate_gate_delays",
        "pipeline_module_balanced",
    ),
    "repro.pipeline.pipeliner": ("PipelineReport", "pipeline_module"),
    "repro.pipeline.retiming": (
        "RetimingResult", "clock_period", "feasible", "make_retiming_graph",
        "opt_period", "retime",
    ),
})
