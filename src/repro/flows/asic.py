"""The ASIC implementation flow: its workload table and public names.

This module holds only what a netlist-only caller needs: the named
workload generators (:data:`WORKLOADS`) every style maps from, and
:func:`check_workload`.  The standard-cell flow itself (its stages,
stage graph and backend registration) lives in
:mod:`repro.flows.asic_flow`, which loads with the ``asic`` backend;
the flow's public names (:func:`run_asic_flow`, :data:`ASIC_GRAPH`,
:data:`ASIC_BACKEND`, :func:`asic_flow_graph`, :func:`finalize_asic`)
resolve from there on first use, so building a named netlist loads no
flow machinery.  They stay importable from here because this module was
the flow's home: ``from repro.flows.asic import run_asic_flow`` in code
written against it keeps working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _lazy
from repro.datapath.alu import alu
from repro.datapath.adders import kogge_stone_adder, ripple_carry_adder
from repro.datapath.cpu import cpu_execute_stage
from repro.datapath.multiplier import array_multiplier, wallace_multiplier
from repro.flows.results import FlowError

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps imports light
    from repro.flows.options import FlowOptions

#: Named workload generators: (callable(bits, library), description).
WORKLOADS = {
    "alu": lambda bits, lib: alu(bits, lib, fast_adder=False),
    "alu_macro": lambda bits, lib: alu(bits, lib, fast_adder=True),
    "adder_ripple": ripple_carry_adder,
    "adder_kogge_stone": kogge_stone_adder,
    "multiplier_array": array_multiplier,
    "multiplier_wallace": wallace_multiplier,
    "cpu": lambda bits, lib: cpu_execute_stage(bits, lib, fast_adder=False),
    "cpu_macro": lambda bits, lib: cpu_execute_stage(
        bits, lib, fast_adder=True
    ),
}


def check_workload(options: FlowOptions) -> None:
    """Reject unknown workloads before any stage runs."""
    if options.workload not in WORKLOADS:
        raise FlowError(
            f"unknown workload {options.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            stage="map",
        )


__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.flows.asic_flow": (
        "ASIC_BACKEND", "ASIC_GRAPH", "asic_flow_graph", "finalize_asic",
        "run_asic_flow",
    ),
})
__all__ += ["WORKLOADS", "check_workload"]
