"""End-to-end implementation flows: pluggable implementation styles.

Every flow is a stage composition on the declarative
:mod:`repro.flows.engine`, registered as a :class:`Backend` in
:mod:`repro.flows.registry` (``asic``, ``custom`` and ``structured``
ship built in); :mod:`repro.flows.cache` gives them fingerprint-keyed
stage caching and :mod:`repro.flows.sweep` fans option sets across
workers with the shared-prefix cache wired in, resolving each point's
flow from its options class.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.flows.asic": (
        "ASIC_GRAPH", "WORKLOADS", "asic_flow_graph", "run_asic_flow",
    ),
    "repro.flows.custom": (
        "CUSTOM_GRAPH", "custom_flow_graph", "run_custom_flow",
    ),
    "repro.flows.engine": (
        "FlowContext", "FlowEngine", "Stage", "StageGraph",
        "stage_fingerprint",
    ),
    "repro.flows.options": (
        "AsicFlowOptions", "CustomFlowOptions", "FlowOptions",
        "StructuredFlowOptions", "options_fingerprint",
    ),
    "repro.flows.registry": (
        "BACKENDS", "Backend", "backend_for_options", "backend_names",
        "get_backend", "register_backend", "run_backend_flow",
    ),
    "repro.flows.results": ("FlowError", "FlowResult", "StageRecord"),
    "repro.flows.structured": (
        "STRUCTURED_GRAPH", "run_structured_flow", "structured_flow_graph",
    ),
    "repro.flows.sweep": ("run_flow_sweep", "run_flow_sweep_report"),
})
