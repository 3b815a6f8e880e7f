"""Buffer insertion for heavy loads and high fanout.

Section 6: "Additional buffers may be included to drive large capacitive
loads that would be charged and discharged too slowly otherwise."  The
pass finds nets whose load exceeds the driver's optimal range and splits
them with buffers (a balanced buffer tree for very wide fanout), then
lets the sizer pick final drives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._fold import fold_sum
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.sizing.logical_effort import SizingError


@dataclass(frozen=True)
class BufferingResult:
    """Summary of one buffering pass.

    Attributes:
        buffers_added: number of buffer instances inserted.
        nets_split: number of original nets that were relieved.
    """

    buffers_added: int
    nets_split: int


def net_load_ff(module: Module, library: CellLibrary, net: str,
                port_load_ff: float) -> float:
    """Capacitive load on a net from its sink pins (plus port allowance)."""
    load = 0.0
    for sink in module.sinks_of(net):
        if is_port_ref(sink):
            load += port_load_ff
            continue
        inst_name, pin = sink
        load += library.get(module.instance(inst_name).cell_name).input_cap_ff(pin)
    return load


def buffer_high_fanout(
    module: Module,
    library: CellLibrary,
    max_fanout: int = 8,
    max_load_ratio: float = 1.0,
) -> BufferingResult:
    """Split overloaded nets with buffers; mutates the module in place.

    A net is relieved when its sink count exceeds ``max_fanout`` or its
    load exceeds ``max_load_ratio`` times the driving cell's limit.  Sinks
    are partitioned into groups behind fresh buffers (one level; repeated
    passes build trees).

    Args:
        module: netlist to buffer.
        library: must stock a BUF (or INV pair fallback is NOT applied --
            buffering without a buffer cell raises).

    Raises:
        SizingError: if the library stocks no buffer.
    """
    if not library.has_base("BUF"):
        raise SizingError(f"library {library.name} stocks no BUF cell")
    if max_fanout < 2:
        raise SizingError("max fanout must be at least 2")
    port_load = 4.0 * library.technology.unit_input_cap_ff
    buffers_added = 0
    nets_split = 0
    for net_name in list(module.nets):
        driver = module.driver_of(net_name)
        if driver is None:
            continue
        sinks = [s for s in module.sinks_of(net_name) if not is_port_ref(s)]
        if not sinks:
            continue
        overload = False
        if len(sinks) > max_fanout:
            overload = True
        if isinstance(driver, tuple):
            drv_cell = library.get(module.instance(driver[0]).cell_name)
            load = net_load_ff(module, library, net_name, port_load)
            if load > max_load_ratio * drv_cell.max_load_ff:
                overload = True
        if not overload:
            continue
        nets_split += 1
        groups = [
            sinks[i: i + max_fanout] for i in range(0, len(sinks), max_fanout)
        ]
        for group in groups:
            group_load = fold_sum(
                library.get(module.instance(i).cell_name).input_cap_ff(p)
                for i, p in group
            )
            # Match the buffer's drive to the load it will carry.
            buffer_cell = library.select_drive("BUF", group_load)
            buf_out = module.add_net()
            module.add_instance(
                None,
                buffer_cell.name,
                inputs={"A": net_name},
                outputs={"Y": buf_out},
            )
            buffers_added += 1
            for inst_name, pin in group:
                inst = module.instance(inst_name)
                # Re-point the sink pin at the buffered copy.
                module.net(net_name).sinks.remove((inst_name, pin))
                inst.inputs[pin] = buf_out
                module.net(buf_out).sinks.append((inst_name, pin))
    return BufferingResult(buffers_added=buffers_added, nets_split=nets_split)
