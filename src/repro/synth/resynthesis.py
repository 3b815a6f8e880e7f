"""Local resynthesis: post-mapping netlist restructuring.

Section 6.2: "With 'liquid cells' or resynthesis, later arriving signals
can be routed closer to the gate output and transistors moved ...
Iterative transistor resizing and resynthesis can improve speeds by 20%"
(references [17] and [8]).

Gate-level equivalents implemented here:

* :func:`remove_inverter_pairs` -- cancel back-to-back inverters (the
  polarity debris a mapper leaves behind);
* :func:`collapse_into_complex_gates` -- fuse AND/OR+NOR/NAND pairs into
  AOI21/OAI21 complex cells, cutting a logic level;
* :func:`pin_swap_late_arrivals` -- put the latest-arriving signal on the
  electrically fastest pin of its gate ("later arriving signals routed
  closer to the gate output");
* :func:`resynthesize` -- the fixed-point loop over all passes.

All passes preserve logic function; the test suite checks equivalence by
exhaustive simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._fold import fold_sum
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.synth.ast import SynthesisError


@dataclass(frozen=True)
class ResynthesisReport:
    """What a resynthesis run changed.

    Attributes:
        inverter_pairs_removed: INV-INV chains cancelled.
        complex_gates_formed: AOI/OAI fusions performed.
        pins_swapped: late-arrival pin swaps applied.
        iterations: fixed-point loop count.
    """

    inverter_pairs_removed: int
    complex_gates_formed: int
    pins_swapped: int
    iterations: int

    @property
    def total_changes(self) -> int:
        return (
            self.inverter_pairs_removed
            + self.complex_gates_formed
            + self.pins_swapped
        )


def _single_sink_instance(module: Module, net: str):
    """The (instance, pin) sink if a net has exactly one gate sink."""
    sinks = module.sinks_of(net)
    if len(sinks) != 1 or is_port_ref(sinks[0]):
        return None
    return sinks[0]


def remove_inverter_pairs(module: Module, library: CellLibrary) -> int:
    """Cancel INV->INV chains where the middle net has a single sink.

    The consumer of the second inverter's output is rewired to the first
    inverter's input; both inverters are removed when they become
    fanout-free.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for inst in list(module.iter_instances()):
            if inst.name not in module.instances:
                continue
            cell = library.get(inst.cell_name)
            if cell.base_name != "INV":
                continue
            mid = next(iter(inst.outputs.values()))
            sink = _single_sink_instance(module, mid)
            if sink is None:
                continue
            second_name, _pin = sink
            second = module.instance(second_name)
            if library.get(second.cell_name).base_name != "INV":
                continue
            out_net = next(iter(second.outputs.values()))
            if out_net in module.outputs():
                continue  # keep port drivers intact
            source = inst.inputs["A"]
            # Re-point all consumers of out_net at the original source.
            for consumer in list(module.sinks_of(out_net)):
                if is_port_ref(consumer):
                    continue
                c_inst, c_pin = consumer
                module.net(out_net).sinks.remove((c_inst, c_pin))
                module.instance(c_inst).inputs[c_pin] = source
                module.net(source).sinks.append((c_inst, c_pin))
            module.remove_instance(second_name)
            module.remove_instance(inst.name)
            removed += 1
            changed = True
    module.prune_dangling_nets()
    return removed


#: Fusion patterns: (inner base, outer base) -> (complex base, inner pins
#: land on A/B, the outer's other input lands on C).
_FUSIONS = {
    ("AND2", "NOR2"): "AOI21",   # ~((a & b) | c)
    ("OR2", "NAND2"): "OAI21",   # ~((a | b) & c)
}


def collapse_into_complex_gates(module: Module, library: CellLibrary) -> int:
    """Fuse two-gate patterns into complex cells (AOI21/OAI21).

    A level disappears and the input load drops -- the static-CMOS
    equivalent of the paper's compact complex cells.
    """
    formed = 0
    for inst in list(module.iter_instances()):
        if inst.name not in module.instances:
            continue
        cell = library.get(inst.cell_name)
        for (inner_base, outer_base), complex_base in _FUSIONS.items():
            if cell.base_name != inner_base:
                continue
            if not library.has_base(complex_base):
                continue
            mid = next(iter(inst.outputs.values()))
            sink = _single_sink_instance(module, mid)
            if sink is None:
                continue
            outer_name, mid_pin = sink
            outer = module.instance(outer_name)
            outer_cell = library.get(outer.cell_name)
            if outer_cell.base_name != outer_base:
                continue
            other_pin = next(
                (p for p in outer.inputs if p != mid_pin), None
            )
            if other_pin is None:
                continue
            a_net = inst.inputs["A"]
            b_net = inst.inputs["B"]
            c_net = outer.inputs[other_pin]
            out_net = next(iter(outer.outputs.values()))
            new_cell = library.select_drive(
                complex_base,
                fold_sum(
                    library.get(module.instance(s[0]).cell_name)
                    .input_cap_ff(s[1])
                    for s in module.sinks_of(out_net)
                    if not is_port_ref(s)
                ),
            )
            module.remove_instance(outer_name)
            module.remove_instance(inst.name)
            module.add_instance(
                None,
                new_cell.name,
                inputs={"A": a_net, "B": b_net, "C": c_net},
                outputs={"Y": out_net},
            )
            formed += 1
            break
    module.prune_dangling_nets()
    return formed


def pin_swap_late_arrivals(
    module: Module,
    library: CellLibrary,
    arrivals: dict[str, float],
) -> int:
    """Put each gate's latest input on its fastest (lowest-effort) pin.

    Args:
        module: mapped netlist.
        library: its library.
        arrivals: arrival time per net (from a prior STA run).

    Only pins with identical logic roles are swapped (commutative inputs
    of AND/OR/NAND/NOR gates); the function is unchanged.
    """
    swapped = 0
    commutative = {"AND", "OR", "NAND", "NOR", "XOR", "XNOR"}
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        stem = "".join(ch for ch in cell.base_name if ch.isalpha())
        if stem not in commutative or len(inst.inputs) < 2:
            continue
        pins = sorted(inst.inputs)
        nets = [inst.inputs[p] for p in pins]
        if any(net not in arrivals for net in nets):
            continue
        efforts = {p: cell.inputs[p].logical_effort for p in pins}
        by_arrival = sorted(nets, key=lambda n: arrivals[n], reverse=True)
        by_effort = sorted(pins, key=lambda p: efforts[p])
        new_assignment = dict(zip(by_effort, by_arrival))
        if new_assignment != inst.inputs:
            for pin, net in inst.inputs.items():
                module.net(net).sinks.remove((inst.name, pin))
            inst.inputs.clear()
            inst.inputs.update(new_assignment)
            for pin, net in inst.inputs.items():
                module.net(net).sinks.append((inst.name, pin))
            swapped += 1
    return swapped


def resynthesize(
    module: Module,
    library: CellLibrary,
    arrivals: dict[str, float] | None = None,
    max_iterations: int = 5,
) -> ResynthesisReport:
    """Run all structural passes to a fixed point; mutates the module."""
    if max_iterations < 1:
        raise SynthesisError("need at least one iteration")
    total_inv = 0
    total_cx = 0
    total_swap = 0
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        inv = remove_inverter_pairs(module, library)
        cx = collapse_into_complex_gates(module, library)
        swap = 0
        if arrivals is not None:
            swap = pin_swap_late_arrivals(module, library, arrivals)
        total_inv += inv
        total_cx += cx
        total_swap += swap
        if inv == cx == swap == 0:
            break
    module.assert_well_formed()
    return ResynthesisReport(
        inverter_pairs_removed=total_inv,
        complex_gates_formed=total_cx,
        pins_swapped=total_swap,
        iterations=iterations,
    )
