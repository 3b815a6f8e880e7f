"""Observability: tracing, metrics, and profiling for the flow stack.

The reproduction's measurement layer.  Flow stages, the STA engine, the
sizers, and the Monte Carlo sampler all emit spans and metrics through
the module-level helpers here; ``repro-gap --profile``, ``--trace`` and
``repro-gap stats`` surface them.  Disabled by default, and a single
flag check when disabled, so the instrumented hot paths stay at seed
speed unless someone is looking.
"""

from repro.obs.clock import MONOTONIC, TickClock
from repro.obs.events import Event, EventError, parse_event, read_events
from repro.obs.export import (
    metrics_to_flat,
    metrics_to_prom,
    report,
    span_to_dict,
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_metrics,
    write_prom,
    write_trace,
)
from repro.obs.instrument import (
    NOOP_SPAN,
    count,
    disable,
    enable,
    enabled,
    gauge,
    get_metrics,
    get_tracer,
    observe,
    render_report,
    reset,
    span,
    traced,
)
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
)
from repro.obs.live import (
    Dashboard,
    EventBus,
    Heartbeat,
    StallDetector,
    StallReport,
    Subscription,
    SweepAggregate,
    WatchConfig,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    Hotspot,
    StageProbe,
    check_budgets,
    cprofile_to_collapsed,
    critical_path,
    load_budgets,
    render_self_report,
    self_time_rollup,
    spans_to_collapsed,
    stage_probe,
    write_collapsed,
)
from repro.obs.regress import (
    Finding,
    RegressionReport,
    Thresholds,
)
from repro.obs.render import (
    aggregate_spans,
    render_run,
    render_span_tree,
    render_waterfall,
)
from repro.obs.trace import ObsError, Span, Tracer

__all__ = [
    "MONOTONIC",
    "NOOP_SPAN",
    "Counter",
    "Dashboard",
    "Event",
    "EventBus",
    "EventError",
    "Finding",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "Hotspot",
    "MetricsRegistry",
    "ObsError",
    "RegressionReport",
    "RunLedger",
    "RunRecord",
    "Span",
    "StageProbe",
    "StallDetector",
    "StallReport",
    "Subscription",
    "SweepAggregate",
    "Thresholds",
    "TickClock",
    "Tracer",
    "WatchConfig",
    "aggregate_spans",
    "check_budgets",
    "count",
    "cprofile_to_collapsed",
    "critical_path",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_metrics",
    "get_tracer",
    "load_budgets",
    "metrics_to_flat",
    "metrics_to_prom",
    "observe",
    "parse_event",
    "read_events",
    "render_report",
    "render_run",
    "render_self_report",
    "render_span_tree",
    "render_waterfall",
    "report",
    "reset",
    "self_time_rollup",
    "span",
    "span_to_dict",
    "spans_to_collapsed",
    "stage_probe",
    "trace_to_chrome",
    "trace_to_jsonl",
    "traced",
    "write_chrome_trace",
    "write_collapsed",
    "write_metrics",
    "write_prom",
    "write_trace",
]
