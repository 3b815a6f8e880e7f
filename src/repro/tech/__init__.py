"""Process technology substrate: nodes, corners and generation scaling."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.tech.corners": (
        "CornerType", "ProcessCorner", "STANDARD_CORNERS", "get_corner",
        "typical_to_best_speedup", "worst_case_to_best_speedup",
        "worst_case_to_typical_speedup",
    ),
    "repro.tech.process": (
        "CMOS180_ASIC", "CMOS180_CUSTOM", "CMOS250_ASIC", "CMOS250_CUSTOM",
        "CMOS350_ASIC", "FO4_IN_TAU", "FO4_PS_PER_UM_LEFF",
        "InterconnectParameters", "ProcessTechnology", "TECHNOLOGIES",
        "TechnologyError", "get_technology",
    ),
    "repro.tech.io": (
        "load_technology", "save_technology", "technology_from_dict",
        "technology_to_dict",
    ),
    "repro.tech.scaling": (
        "MigrationResult", "SHRINK_PER_GENERATION", "SPEEDUP_PER_GENERATION",
        "YEARS_PER_GENERATION", "generations_equivalent", "migrate_asic",
        "migrate_custom", "project_technology", "speedup_over_generations",
        "years_equivalent",
    ),
})
