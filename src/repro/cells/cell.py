"""Cell records: pins, timing arcs, logic functions, sequential timing.

A :class:`Cell` is one entry in a standard-cell library: a logic function
plus the electrical facts STA, sizing and power analysis need.  Section 6
of the paper is entirely about the consequences of these records being a
*fixed, discrete* menu ("any current ASIC methodology requires cell
selection from a fixed library, where transistor sizes and drive strengths
are determined by the choices in the library").
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro._fold import fold_sum
from repro.cells.delay import DelayModelError, LinearDelayArc, NLDMArc

#: The timing-arc types a cell may carry.
TimingArcModel = object  # LinearDelayArc | NLDMArc (kept loose for typing)


class CellError(ValueError):
    """Raised for malformed cell definitions or queries."""


class LogicFamily(enum.Enum):
    """Circuit family of a cell (Section 7)."""

    STATIC = "static"
    DOMINO = "domino"


class CellKind(enum.Enum):
    """Structural role of a cell."""

    COMBINATIONAL = "combinational"
    FLIP_FLOP = "flip_flop"
    LATCH = "latch"


@dataclass(frozen=True)
class InputPin:
    """An input pin with its electrical characteristics.

    Attributes:
        name: pin name (e.g. ``"A"``).
        cap_ff: input capacitance presented to the driving net.
        logical_effort: the pin's logical effort g (how much worse than an
            inverter this input is at driving current per unit input cap).
    """

    name: str
    cap_ff: float
    logical_effort: float = 1.0

    def __post_init__(self) -> None:
        if self.cap_ff <= 0:
            raise CellError(f"pin {self.name}: capacitance must be positive")
        if self.logical_effort <= 0:
            raise CellError(f"pin {self.name}: logical effort must be positive")


@dataclass(frozen=True)
class SequentialTiming:
    """Timing parameters of a flip-flop or level-sensitive latch.

    Section 4.1: "Registers and latches in ASICs have additional overheads
    as they have to be more tolerant to clock skew, and require a far
    larger absolute segment of the clock cycle".  That overhead is
    ``setup + clk_to_q`` here (plus skew, accounted in the clocking model).

    Attributes:
        setup_ps: data-before-clock requirement.
        hold_ps: data-after-clock requirement.
        clk_to_q_ps: clock edge to output valid.
        clock_pin: name of the clock input pin.
        transparent: True for a level-sensitive latch (enables time
            borrowing, Section 4.1's multi-phase clocking discussion).
    """

    setup_ps: float
    hold_ps: float
    clk_to_q_ps: float
    clock_pin: str = "CK"
    transparent: bool = False

    def __post_init__(self) -> None:
        if self.setup_ps < 0 or self.clk_to_q_ps < 0:
            raise CellError("setup and clk->Q must be non-negative")

    @property
    def overhead_ps(self) -> float:
        """Cycle time consumed by this element on a register-register path."""
        return self.setup_ps + self.clk_to_q_ps


_FUNC_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ALLOWED_FUNC = re.compile(r"^[A-Za-z0-9_\s&|^~()!01]*$")


@dataclass(frozen=True)
class Cell:
    """One standard-cell library entry.

    Attributes:
        name: full cell name including drive suffix, e.g. ``"NAND2_X4"``.
        base_name: function family name, e.g. ``"NAND2"``.
        drive: drive strength multiple relative to the unit inverter.
        function: boolean expression over input pin names using
            ``& | ^ ~ ( )`` (empty for sequential cells).
        inputs: input pins, keyed by name.
        output: output pin name.
        max_load_ff: maximum load this cell may legally drive.
        area_um2: layout area.
        arcs: timing arc per input pin (input -> output delay).
        family: static CMOS or domino (Section 7).
        kind: combinational / flip-flop / latch.
        sequential: timing record for sequential cells, else None.
        inverting: True if the function is inverting in at least one input
            (library "polarity" in the Section 6 sense).
    """

    name: str
    base_name: str
    drive: float
    function: str
    inputs: dict[str, InputPin]
    output: str = "Y"
    max_load_ff: float = 100.0
    area_um2: float = 10.0
    arcs: dict[str, object] = field(default_factory=dict)
    family: LogicFamily = LogicFamily.STATIC
    kind: CellKind = CellKind.COMBINATIONAL
    sequential: SequentialTiming | None = None
    inverting: bool = False

    def __post_init__(self) -> None:
        if self.drive <= 0:
            raise CellError(f"cell {self.name}: drive must be positive")
        if self.max_load_ff <= 0 or self.area_um2 <= 0:
            raise CellError(f"cell {self.name}: load limit and area must be positive")
        if self.kind is CellKind.COMBINATIONAL:
            if self.sequential is not None:
                raise CellError(f"cell {self.name}: combinational cells have no "
                                "sequential timing")
            if not self.function:
                raise CellError(f"cell {self.name}: combinational cells need a "
                                "function")
            self._validate_function()
            missing = set(self.inputs) - set(self.arcs)
            if missing:
                raise CellError(
                    f"cell {self.name}: missing timing arcs for pins "
                    f"{sorted(missing)}"
                )
        else:
            if self.sequential is None:
                raise CellError(f"cell {self.name}: sequential cells need timing")
            if self.sequential.clock_pin not in self.inputs:
                raise CellError(
                    f"cell {self.name}: clock pin "
                    f"{self.sequential.clock_pin!r} is not an input"
                )

    def _validate_function(self) -> None:
        if not _ALLOWED_FUNC.match(self.function):
            raise CellError(
                f"cell {self.name}: function {self.function!r} uses "
                "characters outside & | ^ ~ ( ) 0 1"
            )
        refs = set(_FUNC_TOKEN.findall(self.function))
        unknown = refs - set(self.inputs)
        if unknown:
            raise CellError(
                f"cell {self.name}: function references unknown pins "
                f"{sorted(unknown)}"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_sequential(self) -> bool:
        return self.kind is not CellKind.COMBINATIONAL

    @property
    def num_inputs(self) -> int:
        return len(self.data_input_names())

    def data_input_names(self) -> list[str]:
        """Input pins excluding the clock, in sorted order."""
        clock = self.sequential.clock_pin if self.sequential else None
        return sorted(p for p in self.inputs if p != clock)

    def input_cap_ff(self, pin: str) -> float:
        """Capacitance presented on one input pin."""
        try:
            return self.inputs[pin].cap_ff
        except KeyError:
            raise CellError(f"cell {self.name} has no input pin {pin!r}") from None

    def total_input_cap_ff(self) -> float:
        """Sum of all input pin capacitances."""
        return fold_sum(pin.cap_ff for pin in self.inputs.values())

    def arc(self, pin: str) -> object:
        """Timing arc from an input pin to the output."""
        try:
            return self.arcs[pin]
        except KeyError:
            raise CellError(
                f"cell {self.name} has no timing arc from pin {pin!r}"
            ) from None

    def delay_ps(
        self, pin: str, load_ff: float, input_slew_ps: float = 0.0
    ) -> float:
        """Pin-to-output propagation delay."""
        return self.arc(pin).delay_ps(load_ff, input_slew_ps)

    def output_slew_ps(
        self, pin: str, load_ff: float, input_slew_ps: float = 0.0
    ) -> float:
        """Output transition time for a switch initiated at ``pin``."""
        return self.arc(pin).output_slew_ps(load_ff, input_slew_ps)

    def worst_delay_ps(self, load_ff: float, input_slew_ps: float = 0.0) -> float:
        """Worst pin-to-output delay over all input pins."""
        if not self.arcs:
            raise CellError(f"cell {self.name} has no timing arcs")
        return max(
            arc.delay_ps(load_ff, input_slew_ps) for arc in self.arcs.values()
        )

    def evaluate(self, values: dict[str, bool]) -> bool:
        """Evaluate the cell's boolean function.

        Args:
            values: truth assignment for every data input pin.

        Raises:
            CellError: for sequential cells or missing pin values.
        """
        if self.is_sequential:
            raise CellError(f"cell {self.name} is sequential; no static function")
        missing = set(self.inputs) - set(values)
        if missing:
            raise CellError(
                f"cell {self.name}: missing values for pins {sorted(missing)}"
            )
        expr = self.function.replace("!", "~")
        namespace = {name: bool(values[name]) for name in self.inputs}
        # The function grammar is validated at construction time to contain
        # only pin names and & | ^ ~ ( ) 0 1, so eval here is closed.
        result = eval(expr, {"__builtins__": {}}, namespace)  # noqa: S307
        return bool(result) if not isinstance(result, int) else bool(result & 1)

    def load_violated(self, load_ff: float) -> bool:
        """True if a load exceeds this cell's max capacitance limit."""
        return load_ff > self.max_load_ff
