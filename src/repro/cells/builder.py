"""Synthetic standard-cell library generators.

The paper's library-quality arguments (Sections 6 and 7) are reproduced by
generating *families* of libraries from one set of gate templates:

* :func:`rich_asic_library` -- many drive strengths, dual polarities,
  complex gates: the "good standard cell library" of Section 6.2.
* :func:`poor_asic_library` -- two drive strengths, single polarity, no
  complex gates: the library the paper says "may be 25% slower".
* :func:`custom_library` -- a continuous-sizing factory plus low-overhead
  sequential elements: the custom designer's unconstrained menu.
* :func:`domino_library` -- non-inverting dynamic gates with the lower
  logical effort and parasitics that make domino "50% to 100% faster than
  static CMOS combinational logic" (Section 7.1).

All delays derive from the technology's FO4 calibration, so every library
is consistent with the paper's FO4 arithmetic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cells.cell import (
    Cell,
    CellError,
    CellKind,
    InputPin,
    LogicFamily,
    SequentialTiming,
)
from repro.cells.delay import LinearDelayArc, NLDMArc
from repro.cells.library import CellLibrary
from repro.tech.process import ProcessTechnology


@dataclass(frozen=True)
class GateTemplate:
    """Electrical and logical description of one gate function.

    Attributes:
        base_name: function family name, e.g. ``"NAND2"``.
        function: boolean expression over the pin names.
        pin_efforts: logical effort g per input pin (Sutherland values for
            the static templates).
        parasitic: parasitic delay p in units of tau.
        inverting: polarity of the function.
        monotone: True if the function is monotone in all inputs (domino
            realisable, Section 7.1's glitch constraint).
    """

    base_name: str
    function: str
    pin_efforts: dict[str, float]
    parasitic: float
    inverting: bool
    monotone: bool = True


def _t(base, function, efforts, p, inverting, monotone=True) -> GateTemplate:
    return GateTemplate(base, function, efforts, p, inverting, monotone)


#: Static CMOS gate templates with textbook logical-effort parameters.
STATIC_TEMPLATES: dict[str, GateTemplate] = {
    t.base_name: t
    for t in [
        _t("INV", "~A", {"A": 1.0}, 1.0, True),
        _t("BUF", "A", {"A": 1.0}, 2.0, False),
        _t("NAND2", "~(A & B)", {"A": 4 / 3, "B": 4 / 3}, 2.0, True),
        _t("NAND3", "~(A & B & C)", {"A": 5 / 3, "B": 5 / 3, "C": 5 / 3}, 3.0, True),
        _t("NAND4", "~(A & B & C & D)",
           {"A": 2.0, "B": 2.0, "C": 2.0, "D": 2.0}, 4.0, True),
        _t("NOR2", "~(A | B)", {"A": 5 / 3, "B": 5 / 3}, 2.0, True),
        _t("NOR3", "~(A | B | C)", {"A": 7 / 3, "B": 7 / 3, "C": 7 / 3}, 3.0, True),
        _t("NOR4", "~(A | B | C | D)",
           {"A": 3.0, "B": 3.0, "C": 3.0, "D": 3.0}, 4.0, True),
        _t("AND2", "A & B", {"A": 1.5, "B": 1.5}, 3.0, False),
        _t("AND3", "A & B & C", {"A": 1.8, "B": 1.8, "C": 1.8}, 4.0, False),
        _t("AND4", "A & B & C & D",
           {"A": 2.1, "B": 2.1, "C": 2.1, "D": 2.1}, 5.0, False),
        _t("OR2", "A | B", {"A": 1.8, "B": 1.8}, 3.0, False),
        _t("OR3", "A | B | C", {"A": 2.4, "B": 2.4, "C": 2.4}, 4.0, False),
        _t("OR4", "A | B | C | D",
           {"A": 3.2, "B": 3.2, "C": 3.2, "D": 3.2}, 5.0, False),
        _t("XOR2", "A ^ B", {"A": 4.0, "B": 4.0}, 4.0, False, monotone=False),
        _t("XNOR2", "~(A ^ B)", {"A": 4.0, "B": 4.0}, 4.0, True, monotone=False),
        _t("AOI21", "~((A & B) | C)", {"A": 2.0, "B": 2.0, "C": 5 / 3}, 2.5, True),
        _t("OAI21", "~((A | B) & C)", {"A": 2.0, "B": 2.0, "C": 5 / 3}, 2.5, True),
        _t("MUX2", "(A & ~S) | (B & S)",
           {"A": 2.0, "B": 2.0, "S": 4.0}, 4.0, False, monotone=False),
    ]
}

#: Domino gate templates: non-inverting, monotone, lower g and p.
#: Section 7.1: dynamic gates evaluate through an NMOS-only network, so
#: their logical effort is roughly half a static gate's and parasitics
#: shrink with it.  Wide-OR structures are domino's signature strength.
DOMINO_TEMPLATES: dict[str, GateTemplate] = {
    t.base_name: t
    for t in [
        _t("DBUF", "A", {"A": 2 / 3}, 0.8, False),
        _t("DAND2", "A & B", {"A": 2 / 3, "B": 2 / 3}, 1.0, False),
        _t("DAND3", "A & B & C", {"A": 0.8, "B": 0.8, "C": 0.8}, 1.3, False),
        _t("DAND4", "A & B & C & D",
           {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0}, 1.6, False),
        _t("DOR2", "A | B", {"A": 2 / 3, "B": 2 / 3}, 1.0, False),
        _t("DOR3", "A | B | C", {"A": 0.7, "B": 0.7, "C": 0.7}, 1.2, False),
        _t("DOR4", "A | B | C | D",
           {"A": 0.75, "B": 0.75, "C": 0.75, "D": 0.75}, 1.4, False),
        _t("DOR8", "A | B | C | D | E | F | G | H",
           {k: 0.9 for k in "ABCDEFGH"}, 2.0, False),
        _t("DAO21", "(A & B) | C", {"A": 0.9, "B": 0.9, "C": 0.75}, 1.3, False),
        _t("DMAJ3", "(A & B) | (B & C) | (A & C)",
           {"A": 1.0, "B": 1.0, "C": 1.0}, 1.5, False),
    ]
}


@dataclass(frozen=True)
class SequentialSpec:
    """Flip-flop/latch timing in FO4 units (technology-portable).

    Section 4.1 calibration: an ASIC flop burns noticeably more of the
    cycle than a custom one, because ASIC cells carry guard banding
    ("buffering flip-flops, which introduce overhead") and must tolerate
    worse skew; custom latches may absorb logic and are hand-tuned
    (15% of the Alpha's 15-FO4 cycle is its latch overhead).
    """

    setup_fo4: float = 1.2
    hold_fo4: float = 0.3
    clk_to_q_fo4: float = 1.8

    def to_timing(
        self, fo4_ps: float, clock_pin: str = "CK", transparent: bool = False
    ) -> SequentialTiming:
        """Convert to absolute picoseconds for a given FO4 delay."""
        return SequentialTiming(
            setup_ps=self.setup_fo4 * fo4_ps,
            hold_ps=self.hold_fo4 * fo4_ps,
            clk_to_q_ps=self.clk_to_q_fo4 * fo4_ps,
            clock_pin=clock_pin,
            transparent=transparent,
        )

    @property
    def overhead_fo4(self) -> float:
        return self.setup_fo4 + self.clk_to_q_fo4


#: ASIC-class flop: ~3 FO4 of setup + clk->Q overhead.
ASIC_FLOP = SequentialSpec(setup_fo4=1.2, hold_fo4=0.3, clk_to_q_fo4=1.8)
#: Custom-class flop: ~2 FO4 of overhead (hand-designed, logic absorbed).
CUSTOM_FLOP = SequentialSpec(setup_fo4=0.8, hold_fo4=0.1, clk_to_q_fo4=1.2)
#: Level-sensitive latch (enables time borrowing, Section 4.1).
ASIC_LATCH = SequentialSpec(setup_fo4=0.6, hold_fo4=0.3, clk_to_q_fo4=1.0)
CUSTOM_LATCH = SequentialSpec(setup_fo4=0.4, hold_fo4=0.1, clk_to_q_fo4=0.7)


@dataclass(frozen=True)
class LibrarySpec:
    """Recipe for generating a library.

    Attributes:
        name: library name stem.
        drives: discrete drive strengths to emit per function.
        bases: which gate templates to include (None = all of the family).
        family: static or domino.
        use_nldm: tabulate arcs into NLDM tables instead of linear arcs.
        flop: flip-flop timing spec (None omits flops).
        latch: latch timing spec (None omits latches).
        continuous: install a continuous-sizing factory (custom style).
        guard_band: multiplier >= 1 applied to all delays, modelling ASIC
            cell guard banding (Section 6.1).
    """

    name: str
    drives: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    bases: tuple[str, ...] | None = None
    family: LogicFamily = LogicFamily.STATIC
    use_nldm: bool = False
    flop: SequentialSpec | None = ASIC_FLOP
    latch: SequentialSpec | None = ASIC_LATCH
    continuous: bool = False
    guard_band: float = 1.0


def _drive_suffix(drive: float) -> str:
    if float(drive).is_integer():
        return f"X{int(drive)}"
    return "X" + f"{drive:.2f}".replace(".", "p")


def make_combinational_cell(
    tech: ProcessTechnology,
    template: GateTemplate,
    drive: float,
    family: LogicFamily = LogicFamily.STATIC,
    use_nldm: bool = False,
    guard_band: float = 1.0,
) -> Cell:
    """Characterise one gate template at one drive strength.

    The logical-effort identities used:

    * input pin capacitance = g_pin * drive * C_unit;
    * effort delay per fF   = tau / (drive * C_unit);
    * parasitic delay       = p * tau.
    """
    if drive <= 0:
        raise CellError("drive must be positive")
    if guard_band < 1.0:
        raise CellError("guard band cannot be below 1.0")
    tau = tech.tau_ps
    unit_cap = tech.unit_input_cap_ff
    inputs = {}
    arcs = {}
    for pin, g in template.pin_efforts.items():
        inputs[pin] = InputPin(name=pin, cap_ff=g * drive * unit_cap,
                               logical_effort=g)
        linear = LinearDelayArc(
            parasitic_ps=template.parasitic * tau * guard_band,
            effort_ps_per_ff=tau * guard_band / (drive * unit_cap),
        )
        max_load = 16.0 * drive * unit_cap
        arcs[pin] = (
            NLDMArc.from_linear(linear, max_load_ff=max_load)
            if use_nldm
            else linear
        )
    n = len(template.pin_efforts)
    return Cell(
        name=f"{template.base_name}_{_drive_suffix(drive)}",
        base_name=template.base_name,
        drive=drive,
        function=template.function,
        inputs=inputs,
        output="Y",
        max_load_ff=16.0 * drive * unit_cap,
        area_um2=(2.0 + 1.5 * n) * drive * tech.unit_nmos_width_um,
        arcs=arcs,
        family=family,
        kind=CellKind.COMBINATIONAL,
        inverting=template.inverting,
    )


def make_flip_flop(
    tech: ProcessTechnology,
    drive: float,
    spec: SequentialSpec,
    guard_band: float = 1.0,
) -> Cell:
    """A D flip-flop cell with FO4-calibrated timing."""
    unit_cap = tech.unit_input_cap_ff
    timing = spec.to_timing(tech.fo4_delay_ps * guard_band)
    return Cell(
        name=f"DFF_{_drive_suffix(drive)}",
        base_name="DFF",
        drive=drive,
        function="",
        inputs={
            "D": InputPin("D", cap_ff=1.2 * drive * unit_cap),
            "CK": InputPin("CK", cap_ff=1.0 * unit_cap),
        },
        output="Q",
        max_load_ff=16.0 * drive * unit_cap,
        area_um2=18.0 * drive * tech.unit_nmos_width_um,
        arcs={},
        kind=CellKind.FLIP_FLOP,
        sequential=timing,
    )


def make_latch(
    tech: ProcessTechnology,
    drive: float,
    spec: SequentialSpec,
    guard_band: float = 1.0,
) -> Cell:
    """A level-sensitive latch cell (transparent-high)."""
    unit_cap = tech.unit_input_cap_ff
    timing = spec.to_timing(
        tech.fo4_delay_ps * guard_band, clock_pin="G", transparent=True
    )
    return Cell(
        name=f"LATCH_{_drive_suffix(drive)}",
        base_name="LATCH",
        drive=drive,
        function="",
        inputs={
            "D": InputPin("D", cap_ff=1.0 * drive * unit_cap),
            "G": InputPin("G", cap_ff=0.8 * unit_cap),
        },
        output="Q",
        max_load_ff=16.0 * drive * unit_cap,
        area_um2=10.0 * drive * tech.unit_nmos_width_um,
        arcs={},
        kind=CellKind.LATCH,
        sequential=timing,
    )


@dataclass(frozen=True)
class ContinuousFactory:
    """Continuous-sizing cell factory for a library.

    A class rather than a closure so libraries stay picklable: the flow
    stage cache and checkpoint files snapshot libraries, and a closure
    over ``tech`` would make the whole library refuse to pickle.
    """

    tech: ProcessTechnology
    family: LogicFamily
    guard_band: float

    def __call__(self, base_name: str, drive: float) -> Cell:
        templates = (
            DOMINO_TEMPLATES if self.family is LogicFamily.DOMINO
            else STATIC_TEMPLATES
        )
        return make_combinational_cell(
            self.tech, templates[base_name], drive,
            family=self.family, guard_band=self.guard_band,
        )

    def name(self, base_name: str, drive: float) -> str:
        """The name of the cell ``self(base_name, drive)`` builds."""
        return f"{base_name}_{_drive_suffix(drive)}"


def build_library(tech: ProcessTechnology, spec: LibrarySpec) -> CellLibrary:
    """Generate a full library from a recipe."""
    templates = (
        DOMINO_TEMPLATES if spec.family is LogicFamily.DOMINO else STATIC_TEMPLATES
    )
    bases = spec.bases if spec.bases is not None else tuple(sorted(templates))
    cells = []
    for base in bases:
        try:
            template = templates[base]
        except KeyError:
            raise CellError(
                f"no template {base!r} in {spec.family.value} family; "
                f"known: {sorted(templates)}"
            ) from None
        for drive in spec.drives:
            cells.append(
                make_combinational_cell(
                    tech, template, drive,
                    family=spec.family,
                    use_nldm=spec.use_nldm,
                    guard_band=spec.guard_band,
                )
            )
    seq_drives = [d for d in spec.drives if d <= 8.0] or [spec.drives[0]]
    if spec.flop is not None:
        for drive in seq_drives:
            cells.append(make_flip_flop(tech, drive, spec.flop, spec.guard_band))
    if spec.latch is not None:
        for drive in seq_drives:
            cells.append(make_latch(tech, drive, spec.latch, spec.guard_band))

    factory = None
    if spec.continuous:
        factory = ContinuousFactory(tech, spec.family, spec.guard_band)

    return CellLibrary(
        name=f"{spec.name}_{tech.name}",
        technology=tech,
        cells=cells,
        continuous_factory=factory,
    )


# ----------------------------------------------------------------------
# The four canonical libraries of the reproduction
# ----------------------------------------------------------------------

def rich_asic_library(
    tech: ProcessTechnology, use_nldm: bool = False
) -> CellLibrary:
    """Well-stocked ASIC library: many drives, dual polarity, complex gates.

    Section 6.2: "ASIC designs should be using standard cell libraries
    with dual gate polarities and several drive sizes of each gate."
    """
    return build_library(
        tech,
        LibrarySpec(
            name="asic_rich",
            drives=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0),
            use_nldm=use_nldm,
            guard_band=1.05,
        ),
    )


#: Function subset available in the impoverished library: inverting gates
#: only (no dual polarity) and no complex cells.
POOR_BASES = ("INV", "NAND2", "NAND3", "NOR2", "NOR3", "XOR2")


def poor_asic_library(tech: ProcessTechnology) -> CellLibrary:
    """Impoverished ASIC library: two drives, single polarity, guard-banded.

    This is the library of Section 6.1's claim: "a cell library with only
    two drive strengths may be 25% slower than an ASIC library with a rich
    selection of drive strengths ... as well as dual polarities".
    """
    return build_library(
        tech,
        LibrarySpec(
            name="asic_poor",
            drives=(1.0, 4.0),
            bases=POOR_BASES,
            # Same guard band as the rich library so measurements isolate
            # drive richness and polarity, which is what the 25% claim is
            # about.
            guard_band=1.05,
        ),
    )


def custom_library(tech: ProcessTechnology) -> CellLibrary:
    """Custom designer's library: continuous sizing, low-overhead registers.

    Section 6: "In an ideal design, each circuit is optimally crafted from
    transistors and each transistor is individually sized ... Only in a
    custom design methodology can this ideal be realized."
    """
    return build_library(
        tech,
        LibrarySpec(
            name="custom",
            drives=(1.0, 1.4, 2.0, 2.8, 4.0, 5.7, 8.0, 11.3, 16.0, 22.6, 32.0),
            flop=CUSTOM_FLOP,
            latch=CUSTOM_LATCH,
            continuous=True,
            guard_band=1.0,
        ),
    )


def domino_library(tech: ProcessTechnology) -> CellLibrary:
    """Dynamic-logic library for critical paths (Section 7).

    Combinational gates are domino; the registers are custom-class since
    domino design is a custom methodology ("dynamic logic libraries are
    not available for ASIC design").
    """
    return build_library(
        tech,
        LibrarySpec(
            name="domino",
            drives=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            family=LogicFamily.DOMINO,
            flop=CUSTOM_FLOP,
            latch=CUSTOM_LATCH,
            continuous=True,
            guard_band=1.0,
        ),
    )
