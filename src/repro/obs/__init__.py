"""Observability: tracing, metrics, and profiling for the flow stack.

The reproduction's measurement layer.  Flow stages, the STA engine, the
sizers, and the Monte Carlo sampler all emit spans and metrics through
the module-level helpers here; ``repro-gap --profile``, ``--trace`` and
``repro-gap stats`` surface them.  Disabled by default, and a single
flag check when disabled, so the instrumented hot paths stay at seed
speed unless someone is looking.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.obs.clock": ("MONOTONIC", "TickClock"),
    "repro.obs.events": ("Event", "EventError", "parse_event", "read_events"),
    "repro.obs.export": (
        "metrics_to_flat", "report", "span_to_dict", "trace_to_chrome",
        "trace_to_jsonl", "write_chrome_trace", "write_metrics",
        "write_trace",
    ),
    "repro.obs.instrument": (
        "NOOP_SPAN", "count", "disable", "enable", "enabled", "gauge",
        "get_metrics", "get_tracer", "observe", "render_report", "reset",
        "span", "traced",
    ),
    "repro.obs.ledger": ("RunLedger", "RunRecord"),
    "repro.obs.live": (
        "Dashboard", "EventBus", "Heartbeat", "StallDetector", "StallReport",
        "Subscription", "WatchConfig",
    ),
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.profile": (
        "Hotspot", "StageProbe", "check_budgets", "cprofile_to_collapsed",
        "critical_path", "load_budgets", "render_self_report",
        "self_time_rollup", "spans_to_collapsed", "stage_probe",
        "write_collapsed",
    ),
    "repro.obs.regress": ("Finding", "RegressionReport", "Thresholds"),
    "repro.obs.render": (
        "aggregate_spans", "render_run", "render_span_tree",
        "render_waterfall",
    ),
    "repro.obs.trace": ("ObsError", "Span", "Tracer"),
})
