"""Sizing substrate: logical effort, TILOS, discretisation, buffers, wires."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.sizing.buffering": (
        "BufferingResult", "buffer_high_fanout", "net_load_ff",
    ),
    "repro.sizing.discrete": (
        "DiscretizationPenalty", "discretization_penalty",
        "geometric_drive_ladder", "snap_to_library", "worst_case_snap_penalty",
    ),
    "repro.sizing.joint": (
        "JointSizingResult", "joint_size", "path_delay_ps", "sequential_size",
    ),
    "repro.sizing.logical_effort": (
        "BEST_STAGE_EFFORT", "PathSolution", "PathStage", "SizingError",
        "best_stage_count", "chain_delay_tau", "delay_with_stage_count",
        "optimize_path", "sizing_speedup_bound",
    ),
    "repro.sizing.tilos": (
        "SizingResult", "Trajectory", "downsize_off_critical",
        "size_for_speed", "total_area_um2",
    ),
    "repro.sizing.wire_sizing": (
        "DEFAULT_WIDTH_MENU", "WireSizingResult", "size_wires",
    ),
})
