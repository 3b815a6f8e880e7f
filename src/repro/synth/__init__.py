"""Logic synthesis substrate: AST, parser, optimiser, mapper, simulator."""

from repro import _lazy

# ``optimize`` names a function and its submodule: bind the function now,
# or the first import of the submodule would shadow it.
from repro.synth.optimize import balance, flatten, optimize, simplify

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.synth.ast": (
        "And", "Const", "Expr", "FALSE", "Not", "Or", "SynthesisError", "TRUE",
        "Var", "Xor", "majority3", "mux",
    ),
    "repro.synth.macros": (
        "MacroSpec", "expand_macro", "get_macro", "list_macros",
        "register_macro",
    ),
    "repro.synth.fsm": (
        "FsmSpec", "Transition", "bus_interface_spec",
        "next_state_expressions", "synthesize_fsm",
    ),
    "repro.synth.mapper": ("TechnologyMapper", "map_design"),
    "repro.synth.parser": ("parse_design", "parse_expression"),
    "repro.synth.resynthesis": (
        "ResynthesisReport", "collapse_into_complex_gates",
        "pin_swap_late_arrivals", "remove_inverter_pairs", "resynthesize",
    ),
    "repro.synth.simulate": (
        "SimulationError", "exhaustive_equivalent", "simulate_combinational",
        "simulate_sequential",
    ),
})
__all__ += ["balance", "flatten", "optimize", "simplify"]
