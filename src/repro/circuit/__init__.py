"""Logic-family substrate: static vs domino, monotone mapping, noise."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.circuit.domino": (
        "domino_map", "dual_rail_stimulus", "is_monotone",
        "to_negation_normal_form",
    ),
    "repro.circuit.families": (
        "DOMINO_PROFILE", "FamilyError", "FamilyProfile", "PROFILES",
        "STATIC_PROFILE", "profile_of",
        "sequential_speedup_from_combinational",
    ),
    "repro.circuit.skewtolerant": (
        "SkewTolerantClocking", "conventional_cycle_fo4",
        "skew_tolerance_speedup",
    ),
    "repro.circuit.noise": (
        "DOMINO_MARGIN_FRACTION", "NoiseEnvironment", "NoiseError",
        "NoiseViolation", "STATIC_MARGIN_FRACTION", "audit_noise",
        "max_safe_coupling", "noise_margin_v",
    ),
})
