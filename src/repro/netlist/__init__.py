"""Gate-level netlist substrate: nets, modules, graph views, Verilog I/O."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.netlist.graph": (
        "CombinationalLoopError", "fanin_cone", "fanout_cone",
        "find_combinational_loop", "instance_graph", "levelize",
        "logic_depth", "max_fanout", "primary_input_instances",
        "primary_output_instances", "topological_order",
    ),
    "repro.netlist.module": ("Module",),
    "repro.netlist.nets": (
        "Instance", "Net", "NetlistError", "Port", "PortDirection",
        "is_port_ref", "port_ref", "port_ref_name",
    ),
    "repro.netlist.stats": (
        "NetlistStats", "collect_stats", "depth_histogram", "format_stats",
    ),
    "repro.netlist.verilog_io": ("from_verilog", "to_verilog"),
})
