"""Physical design substrate: floorplanning, placement, wires, clock trees."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.physical.clocktree": (
        "ASIC_SEGMENT_MISMATCH", "CUSTOM_SEGMENT_MISMATCH",
        "STRUCTURED_SEGMENT_MISMATCH", "ClockTree", "asic_clock_tree",
        "build_h_tree", "custom_clock_tree", "structured_clock_tree",
    ),
    "repro.physical.fabric": (
        "Fabric", "FabricUtilization", "SlotAssignment", "assign_slots",
        "fabric_for", "fabric_pitch_um",
    ),
    "repro.physical.floorplan": (
        "Block", "Floorplan", "FloorplanResult", "SlicingFloorplanner",
    ),
    "repro.physical.geometry": (
        "GeometryError", "Point", "Rect", "bounding_box",
        "half_perimeter_wirelength",
    ),
    "repro.physical.placement": ("Placement", "ROUTE_DETOUR", "place"),
    "repro.physical.routing": (
        "CongestionModel", "routed_lengths_um", "steiner_length_um",
        "total_routed_length_um",
    ),
    "repro.physical.wlm": (
        "WLM_LARGE", "WLM_MEDIUM", "WLM_SMALL", "WireLoadModel", "WlmAccuracy",
        "compare_to_placement", "estimate_parasitics", "select_wlm",
    ),
    "repro.physical.wires": (
        "ChipWireModel", "RepeaterPlan", "optimal_repeater_plan",
        "optimal_segment_um", "unrepeated_wire_delay_ps", "wire_delay_ps",
    ),
})
