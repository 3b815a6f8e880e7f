"""Exporters: JSON-lines traces, flat metric dumps, and a human report.

Three consumers, three formats:

* :func:`trace_to_jsonl` -- one JSON object per finished span, in start
  order, for machine post-processing (``repro-gap gap --trace t.jsonl``);
* :func:`metrics_to_flat` -- a flat ``{str: scalar}`` dict in the same
  shape as the repo's ``BENCH_*.json`` artifacts, so metric dumps and
  benchmark trajectories share tooling;
* :func:`report` -- the terminal table behind ``--profile`` and
  ``repro-gap stats``.

All output is deterministic given a deterministic clock: keys are
sorted, floats are rounded to fixed precision, and spans are emitted in
start order.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

#: Decimal places kept in exported floats (1 ns at second scale).
FLOAT_DIGITS = 9


def _round(value: float) -> float:
    return round(float(value), FLOAT_DIGITS)


def span_to_dict(span: Span) -> dict:
    """JSON-ready form of one finished span."""
    record = {
        "name": span.name,
        "index": span.index,
        "parent": span.parent,
        "depth": span.depth,
        "thread": span.thread,
        "start_s": _round(span.start_s),
        "duration_ms": _round(span.duration_s * 1e3),
        "self_ms": _round(span.self_s * 1e3),
    }
    if span.attributes:
        record["attrs"] = {
            key: (_round(val) if isinstance(val, float) else val)
            for key, val in sorted(span.attributes.items())
        }
    return record


def trace_to_jsonl(tracer: Tracer) -> str:
    """Finished spans as JSON-lines text (one object per line)."""
    lines = [
        json.dumps(span_to_dict(span), sort_keys=True)
        for span in tracer.finished()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(tracer: Tracer, path: str) -> int:
    """Write the JSON-lines trace atomically; returns the span count.

    Atomic like the ``BENCH_*.json`` merge (temp file + ``os.replace``),
    so a crashed run can never leave a truncated trace behind.
    """
    from repro.obs.ledger import _atomic_write_text

    text = trace_to_jsonl(tracer)
    _atomic_write_text(path, text)
    return len(tracer.finished())


def trace_to_chrome(source: Tracer | Sequence[Span]) -> str:
    """Finished spans in Chrome Trace Event Format (JSON object form).

    The output loads directly into ``chrome://tracing``, Perfetto and
    speedscope: each finished span becomes one complete (``"ph": "X"``)
    event with microsecond timestamps and self-describing args (span
    depth, exclusive self-time, then the span's own attributes), the
    process is named, and each thread gets ``thread_name`` /
    ``thread_sort_index`` metadata events so worker lanes are labelled
    and stable.  Built from the same span tree as
    :func:`trace_to_jsonl` -- adopted pool-worker spans appear on
    their original thread lanes.

    Args:
        source: a tracer, or an explicit finished-span list.
    """
    spans = source.finished() if isinstance(source, Tracer) else [
        span for span in source if span.end_s is not None
    ]
    threads: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = threads.setdefault(span.thread, len(threads))
        event = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": _round(span.start_s * 1e6),
            "dur": _round(span.duration_s * 1e6),
            "pid": 0,
            "tid": tid,
        }
        args = {
            "depth": span.depth,
            "self_ms": _round(span.self_s * 1e3),
        }
        args.update({
            key: (_round(val) if isinstance(val, float) else val)
            for key, val in sorted(span.attributes.items())
        })
        event["args"] = args
        events.append(event)
    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "repro-gap"},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": 0,
            "args": {"sort_index": 0},
        },
    ]
    for thread, tid in sorted(threads.items(), key=lambda kv: kv[1]):
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": thread},
        })
        meta.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"sort_index": tid},
        })
    return json.dumps(
        {"traceEvents": meta + events, "displayTimeUnit": "ms"},
        sort_keys=True,
    )


def write_chrome_trace(source: Tracer | Sequence[Span],
                       path: str) -> int:
    """Atomically write the Chrome trace; returns the span count."""
    from repro.obs.ledger import _atomic_write_text

    text = trace_to_chrome(source)
    _atomic_write_text(path, text + "\n")
    spans = source.finished() if isinstance(source, Tracer) else [
        span for span in source if span.end_s is not None
    ]
    return len(spans)


def _flat_label(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


def metrics_to_flat(registry: MetricsRegistry) -> dict:
    """Flatten every metric into a ``BENCH_*.json``-style scalar dict.

    Counters and gauges contribute one key per label set; histograms
    contribute count/mean/p50/p95/max summaries.
    """
    flat: dict = {}
    for metric in registry.all_metrics():
        for key in sorted(metric.series()):
            suffix = _flat_label(key)
            labels = dict(key)
            if isinstance(metric, Counter):
                flat[metric.name + suffix] = _round(metric.value(**labels))
            elif isinstance(metric, Gauge):
                flat[metric.name + suffix] = _round(metric.value(**labels))
            elif isinstance(metric, Histogram):
                base = metric.name + suffix
                flat[base + ".count"] = metric.count(**labels)
                flat[base + ".sum"] = _round(metric.total(**labels))
                flat[base + ".mean"] = _round(metric.mean(**labels))
                flat[base + ".p50"] = _round(metric.percentile(50, **labels))
                flat[base + ".p95"] = _round(metric.percentile(95, **labels))
                flat[base + ".max"] = _round(metric.percentile(100, **labels))
    return flat


def write_metrics(registry: MetricsRegistry, path: str) -> int:
    """Atomically write the flat metrics dump as JSON; returns the key
    count."""
    from repro.obs.ledger import _atomic_write_text

    flat = metrics_to_flat(registry)
    _atomic_write_text(
        path, json.dumps(flat, indent=2, sort_keys=True) + "\n"
    )
    return len(flat)


def report(tracer: Tracer, registry: MetricsRegistry) -> str:
    """Human-readable profile: span tree, then metrics.

    The span section is the indented call-path tree from
    :mod:`repro.obs.render` (total and self milliseconds per node,
    cache-hit and error annotations) rather than the old flat per-name
    table, so nesting -- which stage called which solver how often --
    survives into the terminal view.
    """
    from repro.obs.render import render_metrics, render_span_tree

    sections: list[str] = []
    spans = tracer.finished()
    if spans:
        sections.append(render_span_tree(spans))
    flat = metrics_to_flat(registry)
    if flat:
        sections.append(render_metrics(flat))
    if not sections:
        return "(no observability data recorded)"
    return "\n\n".join(sections)
