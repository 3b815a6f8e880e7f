"""The CellLibrary container and its selection queries.

A library is the fixed menu an ASIC flow chooses from (Section 6).  Its
"richness" -- how many drive strengths per function, and whether both
polarities of each function are present -- is one of the paper's measured
factors: "a cell library with only two drive strengths may be 25% slower
than an ASIC library with a rich selection of drive strengths and buffer
sizes, as well as dual polarities for functions".
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Iterator

from repro.cells.cell import Cell, CellError, CellKind, LogicFamily
from repro.tech.process import ProcessTechnology


class CellLibrary:
    """A named collection of cells built for one process technology.

    Attributes:
        name: library name, e.g. ``"asic_rich_cmos250"``.
        technology: the process the cells are characterised for.
        continuous_factory: optional callable ``(base_name, drive) -> Cell``
            enabling custom-style continuous sizing (Section 6: "only in a
            custom design methodology can this ideal be realized"); its
            ``name(base_name, drive)`` names a cell without building it.
    """

    def __init__(
        self,
        name: str,
        technology: ProcessTechnology,
        cells: Iterable[Cell] = (),
        continuous_factory=None,
    ) -> None:
        self.name = name
        self.technology = technology
        self.continuous_factory = continuous_factory
        self._cells: dict[str, Cell] = {}
        self._by_base: dict[str, list[Cell]] = {}
        for cell in cells:
            self.add(cell)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add(self, cell: Cell) -> None:
        """Register a cell; names must be unique."""
        if cell.name in self._cells:
            raise CellError(f"duplicate cell {cell.name!r} in library {self.name}")
        self._cells[cell.name] = cell
        self._by_base.setdefault(cell.base_name, []).append(cell)
        self._by_base[cell.base_name].sort(key=lambda c: c.drive)

    def snapshot(self) -> CellLibrary:
        """An independent copy that shares the (frozen) cells.

        Only the containers are copied, so cells later added to either
        library never show up in the other.  The flow stage cache stores
        and hands out libraries this way instead of pickling them.
        """
        clone = copy.copy(self)
        clone._cells = dict(self._cells)
        clone._by_base = {base: list(cells)
                          for base, cells in self._by_base.items()}
        return clone

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Cell:
        """Cell by full name.

        Raises:
            CellError: if absent, listing a few similar names.
        """
        try:
            return self._cells[name]
        except KeyError:
            base = name.split("_")[0]
            hints = [c for c in self._cells if c.startswith(base)][:5]
            raise CellError(
                f"no cell {name!r} in library {self.name}"
                + (f"; similar: {hints}" if hints else "")
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> dict[str, Cell]:
        return dict(self._cells)

    def bases(self) -> list[str]:
        """All function families present, sorted."""
        return sorted(self._by_base)

    def has_base(self, base_name: str) -> bool:
        return base_name in self._by_base

    def drives_of(self, base_name: str) -> list[Cell]:
        """All drive variants of one function, ascending drive order."""
        try:
            return list(self._by_base[base_name])
        except KeyError:
            raise CellError(
                f"library {self.name} has no cells of base {base_name!r}; "
                f"bases: {self.bases()}"
            ) from None

    def smallest(self, base_name: str) -> Cell:
        """Minimum-drive variant of a function."""
        return self.drives_of(base_name)[0]

    def largest(self, base_name: str) -> Cell:
        """Maximum-drive variant of a function."""
        return self.drives_of(base_name)[-1]

    def continuous_cell(self, base_name: str, drive: float) -> Cell:
        """The continuous factory's cell, built and added on first use."""
        cell = self._cells.get(self.continuous_factory.name(base_name, drive))
        if cell is None:
            cell = self.continuous_factory(base_name, drive)
            self.add(cell)
        return cell

    def select_drive(self, base_name: str, load_ff: float) -> Cell:
        """Pick the discrete drive variant best suited to a load.

        Chooses the smallest cell whose delay-optimal load range covers
        the given load: the smallest drive with ``load <= max_load`` whose
        stage effort stays moderate, falling back to the largest cell for
        loads beyond every limit.  With a continuous factory installed,
        synthesises an exactly-sized cell instead.
        """
        if load_ff < 0:
            raise CellError("load must be non-negative")
        if self.continuous_factory is not None:
            unit_cap = self.technology.unit_input_cap_ff
            return self.continuous_cell(base_name, max(0.25, load_ff / (4.0 * unit_cap)))
        variants = self.drives_of(base_name)
        for cell in variants:
            # Target: keep electrical effort (load / drive*Cunit) near the
            # optimal ~4 of logical-effort design.
            target = 4.0 * cell.drive * self.technology.unit_input_cap_ff
            if load_ff <= target and not cell.load_violated(load_ff):
                return cell
        for cell in variants:
            if not cell.load_violated(load_ff):
                return cell
        return variants[-1]

    # ------------------------------------------------------------------
    # Structure queries used by netlist/STA layers
    # ------------------------------------------------------------------

    def sequential_cell_names(self) -> set[str]:
        """Names of all flip-flop and latch cells (for graph cutting)."""
        return {c.name for c in self._cells.values() if c.is_sequential}

    def output_pin_map(self) -> dict[str, set[str]]:
        """Map cell name -> set of output pin names (for Verilog reading)."""
        return {c.name: {c.output} for c in self._cells.values()}

    def flip_flop(self) -> Cell:
        """The library's default flip-flop (smallest DFF variant)."""
        for base in self.bases():
            variants = self._by_base[base]
            if variants[0].kind is CellKind.FLIP_FLOP:
                return variants[0]
        raise CellError(f"library {self.name} has no flip-flop")

    def latch(self) -> Cell:
        """The library's default level-sensitive latch."""
        for base in self.bases():
            variants = self._by_base[base]
            if variants[0].kind is CellKind.LATCH:
                return variants[0]
        raise CellError(f"library {self.name} has no latch")

    def inverter(self) -> Cell:
        """The unit inverter."""
        return self.smallest("INV")

    def buffer(self) -> Cell:
        """The unit buffer."""
        return self.smallest("BUF")

    # ------------------------------------------------------------------
    # Richness metrics (Section 6)
    # ------------------------------------------------------------------

    def drive_count(self, base_name: str) -> int:
        """Number of drive variants available for a function."""
        return len(self.drives_of(base_name))

    def mean_drives_per_base(self) -> float:
        """Average drive variants per combinational function."""
        comb = [
            variants
            for variants in self._by_base.values()
            if not variants[0].is_sequential
        ]
        if not comb:
            return 0.0
        return sum(len(v) for v in comb) / len(comb)

    def has_dual_polarity(self, base_name: str) -> bool:
        """True if both polarities of a function exist (e.g. AND2 & NAND2)."""
        duals = {
            "NAND2": "AND2", "NAND3": "AND3", "NAND4": "AND4",
            "NOR2": "OR2", "NOR3": "OR3", "NOR4": "OR4",
            "XOR2": "XNOR2",
            "AND2": "NAND2", "AND3": "NAND3", "AND4": "NAND4",
            "OR2": "NOR2", "OR3": "NOR3", "OR4": "NOR4",
            "XNOR2": "XOR2",
        }
        dual = duals.get(base_name)
        return dual is not None and self.has_base(dual)

    def families(self) -> set[LogicFamily]:
        """Logic families present in the library."""
        return {c.family for c in self._cells.values()}

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        seq = len(self.sequential_cell_names())
        return (
            f"library {self.name}: {len(self)} cells, "
            f"{len(self.bases())} functions, "
            f"{self.mean_drives_per_base():.1f} drives/function, "
            f"{seq} sequential, technology {self.technology.name}"
        )
