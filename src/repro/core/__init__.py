"""The paper's contribution: factor model, cycle accounting, survey, gap."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.core.cycletime": (
        "ALPHA_CYCLE", "CycleTimeError", "CycleTimeModel", "POWERPC_CYCLE",
        "TYPICAL_ASIC_CYCLE", "XTENSA_CYCLE",
    ),
    "repro.core.factors": (
        "DYNAMIC_LOGIC", "Factor", "FactorError", "FactorModel",
        "FLOORPLANNING", "MICROARCHITECTURE", "PAPER_FACTORS",
        "PROCESS_VARIATION", "SIZING", "measured_model",
    ),
    "repro.core.gap": (
        "GapError", "GapReport", "MultiGapReport", "analyze_gap",
        "analyze_multi_gap",
    ),
    "repro.core.roadmap": (
        "RoadmapPoint", "asymptotic_gap", "project_gap", "roadmap_table",
    ),
    "repro.core.sensitivity": (
        "FactorSensitivity", "overstatement_test", "sensitivity_analysis",
        "tornado_table",
    ),
    "repro.core.survey": (
        "ALPHA_21264A_ENTRY", "DesignStyle", "IBM_POWERPC_ENTRY",
        "NETWORK_ASIC_ENTRY", "SURVEY", "SurveyEntry", "TYPICAL_ASIC_ENTRY",
        "XTENSA_ENTRY", "fastest", "gap_summary", "headline_gap",
    ),
})
