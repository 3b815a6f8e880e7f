"""Timing-graph construction: loads, parasitics, start/end points.

The timing graph view binds a netlist to its library: every net gets a
capacitive load (sink pin caps plus optional wire parasitics from the
physical layer) and every path start/end point is classified.  The
propagation itself lives in :mod:`repro.sta.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cells.cell import Cell
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref


class TimingError(ValueError):
    """Raised for netlists the timing engine cannot analyse."""


@dataclass
class WireParasitics:
    """Per-net wire loading handed over by the physical layer.

    Attributes:
        extra_cap_ff: additional capacitive load per net (wire cap).
        extra_delay_ps: additional propagation delay per net (distributed
            RC / repeater-chain delay as computed by
            :mod:`repro.physical.wires`).
    """

    extra_cap_ff: dict[str, float] = field(default_factory=dict)
    extra_delay_ps: dict[str, float] = field(default_factory=dict)

    def cap(self, net: str) -> float:
        return self.extra_cap_ff.get(net, 0.0)

    def delay(self, net: str) -> float:
        return self.extra_delay_ps.get(net, 0.0)


class TimingGraph:
    """Netlist + library binding with load computation.

    Args:
        module: the mapped netlist.
        library: cell library resolving every instance.
        wire: optional wire parasitics.
        output_load_ff: assumed load on each module output port (a
            receiving register or downstream block), defaulting to four
            unit-inverter input capacitances.
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        wire: WireParasitics | None = None,
        output_load_ff: float | None = None,
    ) -> None:
        self.module = module
        self.library = library
        self.wire = wire or WireParasitics()
        if output_load_ff is None:
            output_load_ff = 4.0 * library.technology.unit_input_cap_ff
        self.output_load_ff = output_load_ff
        self._cells: dict[str, Cell] = {}
        for inst in module.iter_instances():
            self._cells[inst.name] = library.get(inst.cell_name)

    def cell_of(self, instance_name: str) -> Cell:
        """Library cell of an instance (cached)."""
        return self._cells[instance_name]

    def rebind(self, instance_name: str) -> Cell:
        """Re-resolve one instance's cell after a ``replace_cell``.

        Incremental sizing mutates instance cell bindings in place; this
        refreshes the cache entry and returns the new cell.
        """
        cell = self.library.get(self.module.instance(instance_name).cell_name)
        self._cells[instance_name] = cell
        return cell

    def net_load_ff(self, net: str,
                    swap: tuple[str, Cell] | None = None) -> float:
        """Total capacitive load on a net: pins + wire + port allowance.

        ``swap`` is an ``(instance, cell)`` pair: the load with that
        instance bound to ``cell``, summed in the same order (wire, then
        sinks in ``sinks_of`` order), so bitwise the swapped netlist's.
        """
        load = self.wire.cap(net)
        for sink in self.module.sinks_of(net):
            if is_port_ref(sink):
                load += self.output_load_ff
                continue
            inst_name, pin = sink
            cell = (swap[1] if swap is not None and inst_name == swap[0]
                    else self._cells[inst_name])
            load += cell.input_cap_ff(pin)
        return load

    def instance_load_ff(self, instance_name: str,
                         swap: tuple[str, Cell] | None = None) -> float:
        """Total load driven by an instance: the sum over its output nets.

        Single-output cells (every cell our builders produce) reduce to
        ``net_load_ff`` of the one output; multi-output instances charge
        the driver with every fanout net, matching what the gate
        physically drives.  Both the deterministic and statistical
        engines compute gate delay against this load.  ``swap`` is as
        in :meth:`net_load_ff`.
        """
        load = 0.0
        for net in self.module.instance(instance_name).outputs.values():
            load += self.net_load_ff(net, swap)
        return load

    def sequential_instances(self) -> list[str]:
        """Names of flip-flop and latch instances."""
        return [
            name for name, cell in self._cells.items() if cell.is_sequential
        ]

    def sequential_cell_names(self) -> set[str]:
        return self.library.sequential_cell_names()

    def endpoints(self) -> list[tuple[str, object]]:
        """All timing endpoints.

        Returns a list of ``(kind, detail)`` pairs: ``("port", name)``
        for module outputs, ``("register", (instance, data_pin))`` for
        sequential data inputs.
        """
        ends: list[tuple[str, object]] = [
            ("port", name) for name in self.module.outputs()
        ]
        for name in self.sequential_instances():
            cell = self.cell_of(name)
            for pin in cell.data_input_names():
                ends.append(("register", (name, pin)))
        return ends

    def start_nets(self) -> dict[str, str]:
        """Map from start-point net to start kind (``input``/``register``)."""
        starts = {name: "input" for name in self.module.inputs()}
        for name in self.sequential_instances():
            inst = self.module.instance(name)
            for net in inst.outputs.values():
                starts[net] = "register"
        return starts
