"""Standard-cell library substrate: cells, delay models, generators, I/O."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.cells.builder": (
        "ASIC_FLOP", "ASIC_LATCH", "CUSTOM_FLOP", "CUSTOM_LATCH",
        "DOMINO_TEMPLATES", "GateTemplate", "LibrarySpec", "POOR_BASES",
        "STATIC_TEMPLATES", "SequentialSpec", "build_library",
        "custom_library", "domino_library", "make_combinational_cell",
        "make_flip_flop", "make_latch", "poor_asic_library",
        "rich_asic_library",
    ),
    "repro.cells.cell": (
        "Cell", "CellError", "CellKind", "InputPin", "LogicFamily",
        "SequentialTiming",
    ),
    "repro.cells.delay": (
        "DEFAULT_SLEW_RATIO", "DEFAULT_SLEW_SENSITIVITY", "DelayModelError",
        "LinearDelayArc", "NLDMArc",
    ),
    "repro.cells.liberty_io": ("LibertyError", "from_liberty", "to_liberty"),
    "repro.cells.library": ("CellLibrary",),
    "repro.cells.power": (
        "DEFAULT_ACTIVITY", "DOMINO_ACTIVITY", "PowerReport", "estimate_power",
        "power_ratio_domino_vs_static", "switching_energy_fj",
        "switching_power_uw",
    ),
})
