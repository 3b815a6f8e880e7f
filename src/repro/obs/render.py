"""Terminal rendering of traces and run records: span trees, waterfalls.

Replaces the old flat per-name profile table with structure-preserving
views:

* :func:`aggregate_spans` collapses a finished-span list into *path*
  aggregates -- one entry per distinct call path (root span name down
  to the leaf), carrying call count, total/self time, and cache-hit /
  error annotations.  Adopted pool-worker spans aggregate like local
  ones because adoption already re-parented them;
* :func:`render_span_tree` prints that aggregate as an indented tree
  with total and self milliseconds per node (the ``--profile`` and
  ``repro-gap stats`` view);
* :func:`render_waterfall` prints a per-stage waterfall table -- start
  offset, duration bar, status and cache annotation -- from the stage
  records of a flow run;
* :func:`render_run` renders one full ledger record: header, claims,
  stage waterfall, span tree, metrics.

All output is deterministic for a deterministic clock; entries are
ordered by call path.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.trace import Span

#: Separator inside stored span paths (span names are dotted already).
PATH_SEP = " > "

#: Cap on stored span-tree entries per run record (defensive bound).
MAX_SPAN_ENTRIES = 500


def aggregate_spans(spans: Sequence[Span],
                    root_index: int | None = None) -> list[dict]:
    """Collapse finished spans into per-call-path aggregate entries.

    Args:
        spans: finished spans (any order; parent links by span index).
        root_index: when given, only the span with that index and its
            descendants are aggregated (the engine uses this to scope a
            record to one flow's subtree).

    Returns:
        JSON-ready entries sorted by path, each with ``path``, ``name``,
        ``depth``, ``calls``, ``total_ms``, ``self_ms``, ``hits`` (calls
        that were cache replays) and ``errors``.
    """
    by_index = {span.index: span for span in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(span: Span) -> tuple[str, ...] | None:
        cached = paths.get(span.index)
        if cached is not None:
            return cached
        if root_index is not None and span.index == root_index:
            path: tuple[str, ...] | None = (span.name,)
        elif span.parent is None or span.parent not in by_index:
            path = None if root_index is not None else (span.name,)
        else:
            parent_path = path_of(by_index[span.parent])
            path = (None if parent_path is None
                    else parent_path + (span.name,))
        if path is not None:
            paths[span.index] = path
        return path

    acc: dict[tuple[str, ...], dict] = {}
    for span in spans:
        if span.end_s is None:
            continue
        path = path_of(span)
        if path is None:
            continue
        entry = acc.get(path)
        if entry is None:
            entry = acc[path] = {
                "path": PATH_SEP.join(path),
                "name": span.name,
                "depth": len(path) - 1,
                "calls": 0,
                "total_ms": 0.0,
                "self_ms": 0.0,
                "hits": 0,
                "errors": 0,
            }
        entry["calls"] += 1
        entry["total_ms"] += span.duration_s * 1e3
        entry["self_ms"] += span.self_s * 1e3
        if span.attributes.get("cached"):
            entry["hits"] += 1
        if "error" in span.attributes:
            entry["errors"] += 1
    entries = [acc[path] for path in sorted(acc)]
    for entry in entries:
        entry["total_ms"] = round(entry["total_ms"], 6)
        entry["self_ms"] = round(entry["self_ms"], 6)
    if len(entries) > MAX_SPAN_ENTRIES:
        entries.sort(key=lambda e: e["total_ms"], reverse=True)
        entries = entries[:MAX_SPAN_ENTRIES]
        entries.sort(key=lambda e: e["path"])
    return entries


def _annotations(entry: dict) -> str:
    notes = []
    hits, calls = entry.get("hits", 0), entry.get("calls", 0)
    if hits:
        notes.append("cached" if hits == calls
                     else f"{hits}/{calls} cached")
    if entry.get("errors"):
        notes.append(f"{entry['errors']} error(s)")
    return f"  [{', '.join(notes)}]" if notes else ""


def render_span_entries(entries: Sequence[dict]) -> str:
    """Indented span-tree table from aggregate entries."""
    if not entries:
        return "(no spans recorded)"
    lines = [
        f"{'span tree':<44s} {'calls':>6s} {'total ms':>10s} "
        f"{'self ms':>10s}"
    ]
    for entry in entries:
        label = "  " * entry.get("depth", 0) + entry.get("name", "?")
        lines.append(
            f"{label:<44.44s} {entry.get('calls', 0):>6d} "
            f"{entry.get('total_ms', 0.0):>10.2f} "
            f"{entry.get('self_ms', 0.0):>10.2f}"
            f"{_annotations(entry)}"
        )
    return "\n".join(lines)


def render_span_tree(spans: Sequence[Span],
                     root_index: int | None = None) -> str:
    """Indented span tree straight from a tracer's finished spans."""
    return render_span_entries(aggregate_spans(spans,
                                               root_index=root_index))


def render_waterfall(stages: Sequence[dict], width: int = 32) -> str:
    """Per-stage waterfall: start offset, duration bar, cache status.

    Args:
        stages: stage-record dicts (``name``, ``status``, ``wall_s``,
            ``cache_hit``, optionally the profiler's ``cpu_s`` /
            ``peak_mem_kb``) in run order.  Profile columns render
            only when at least one stage carries them, so unprofiled
            runs keep the original layout.
        width: bar column width in characters.
    """
    if not stages:
        return "(no stage records)"
    walls = [max(float(s.get("wall_s", 0.0)), 0.0) for s in stages]
    total = sum(walls)
    profiled = any(s.get("cpu_s") is not None
                   or s.get("peak_mem_kb") is not None for s in stages)
    lines = [f"stage waterfall (total {total:.4f} s):"]
    scale = width / total if total > 0 else 0.0
    offset = 0.0
    for stage, wall in zip(stages, walls):
        lead = int(offset * scale)
        bar_len = max(int(round(wall * scale)), 1 if wall > 0 else 0)
        bar_len = min(bar_len, width - lead) if lead < width else 0
        bar = " " * lead + "#" * bar_len
        mark = " hit" if stage.get("cache_hit") else ""
        profile = ""
        if profiled:
            cpu = stage.get("cpu_s")
            peak = stage.get("peak_mem_kb")
            cpu_text = f"{cpu:>8.4f}" if cpu is not None else f"{'--':>8s}"
            peak_text = (f"{peak:>9.1f}" if peak is not None
                         else f"{'--':>9s}")
            profile = f"  cpu {cpu_text} s  peak {peak_text} KiB"
        lines.append(
            f"  {str(stage.get('name', '?')):<10.10s} "
            f"{str(stage.get('status', '?')):<8.8s} "
            f"{wall:>9.4f} s  |{bar:<{width}s}|{profile}{mark}"
        )
        offset += wall
    return "\n".join(lines)


def render_metrics(flat: dict) -> str:
    """Flat metric table (sorted keys, fixed columns)."""
    if not flat:
        return "(no metrics recorded)"
    lines = [f"{'metric':<52s} {'value':>12s}"]
    for key in sorted(flat):
        value = flat[key]
        if isinstance(value, float):
            # Empty histograms export NaN percentiles; print a clean
            # placeholder instead of a bare "nan".
            rendered = "--" if math.isnan(value) else f"{value:.3f}"
        else:
            rendered = str(value)
        lines.append(f"{key:<52.52s} {rendered:>12s}")
    return "\n".join(lines)


def render_claims(claims: dict) -> str:
    """Claim table: value against its tolerance band."""
    if not claims:
        return "(no claims recorded)"
    lines = [f"{'claim':<44s} {'value':>10s} {'band':>17s} {'':>4s}"]
    for name in sorted(claims):
        entry = claims[name]
        if not isinstance(entry, dict):
            continue
        value = entry.get("value")
        band = f"[{entry.get('lo')}, {entry.get('hi')}]"
        mark = "in" if entry.get("ok", True) else "OUT"
        rendered = (f"{value:.4g}" if isinstance(value, (int, float))
                    else str(value))
        lines.append(
            f"{name:<44.44s} {rendered:>10s} {band:>17.17s} {mark:>4s}"
        )
    return "\n".join(lines)


def render_run(record: "object") -> str:
    """Full terminal view of one ledger run record.

    Accepts a :class:`~repro.obs.ledger.RunRecord` or its dict form.
    """
    rec = record.to_dict() if hasattr(record, "to_dict") else dict(record)
    created = rec.get("created_s", 0.0)
    try:
        import datetime

        stamp = datetime.datetime.fromtimestamp(
            created, tz=datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ")
    except (OverflowError, OSError, ValueError):
        stamp = "?"
    lines = [
        f"run {rec.get('run_id', '?')}  kind={rec.get('kind', '?')}  "
        f"label={rec.get('label', '?')}",
        f"  created {stamp}  wall {rec.get('wall_s', 0.0):.4f} s  "
        f"fingerprint {rec.get('fingerprint', '?')}  "
        f"rev {rec.get('git_rev') or '-'}"
        f"{'  [worker]' if rec.get('worker') else ''}",
    ]
    diagnostics = rec.get("diagnostics") or []
    if diagnostics:
        lines.append(f"  diagnostics: {len(diagnostics)}")
    if rec.get("events_path"):
        lines.append(f"  events: {rec['events_path']}  "
                     f"(repro-gap top {rec['events_path']})")
    sections = []
    if rec.get("claims"):
        sections.append(render_claims(rec["claims"]))
    if rec.get("stages"):
        sections.append(render_waterfall(rec["stages"]))
    if rec.get("spans"):
        # Lazy import: profile builds on this module's aggregates.
        from repro.obs import profile as _profile

        sections.append(_profile.render_critical_path(rec["spans"]))
        sections.append(render_span_entries(rec["spans"]))
    if rec.get("metrics"):
        sections.append(render_metrics(rec["metrics"]))
    body = "\n\n".join(sections) if sections else "(empty record)"
    return "\n".join(lines) + "\n\n" + body


def diff_runs(a: "object", b: "object") -> str:
    """Side-by-side delta view of two run records (stages, metrics,
    claims)."""
    rec_a = a.to_dict() if hasattr(a, "to_dict") else dict(a)
    rec_b = b.to_dict() if hasattr(b, "to_dict") else dict(b)
    lines = [
        f"diff {rec_a.get('run_id', 'A')} ({rec_a.get('label', '?')}) "
        f"-> {rec_b.get('run_id', 'B')} ({rec_b.get('label', '?')})",
        f"  wall {rec_a.get('wall_s', 0.0):.4f} s -> "
        f"{rec_b.get('wall_s', 0.0):.4f} s",
    ]
    if rec_a.get("fingerprint") != rec_b.get("fingerprint"):
        lines.append("  WARNING: fingerprints differ -- these are not "
                     "the same design point")

    stages_a = {s.get("name"): s for s in rec_a.get("stages") or []}
    stages_b = {s.get("name"): s for s in rec_b.get("stages") or []}
    names = [s.get("name") for s in rec_a.get("stages") or []]
    names += [n for n in (s.get("name") for s in rec_b.get("stages") or [])
              if n not in names]
    if names:
        lines.append("")
        lines.append(f"  {'stage':<10s} {'A wall s':>10s} {'B wall s':>10s}"
                     f" {'delta':>8s}  status")
        for name in names:
            sa, sb = stages_a.get(name), stages_b.get(name)
            wa = float(sa.get("wall_s", 0.0)) if sa else float("nan")
            wb = float(sb.get("wall_s", 0.0)) if sb else float("nan")
            if sa and sb and wa > 0:
                delta = f"{(wb / wa - 1.0) * 100.0:+.0f}%"
            else:
                delta = "n/a"
            status = (f"{sa.get('status') if sa else '-'}"
                      f" -> {sb.get('status') if sb else '-'}")
            lines.append(
                f"  {str(name):<10.10s} {wa:>10.4f} {wb:>10.4f} "
                f"{delta:>8s}  {status}"
            )

    metrics_a = rec_a.get("metrics") or {}
    metrics_b = rec_b.get("metrics") or {}
    changed = []
    for key in sorted(set(metrics_a) | set(metrics_b)):
        va, vb = metrics_a.get(key), metrics_b.get(key)
        if va != vb:
            changed.append((key, va, vb))
    if changed:
        lines.append("")
        lines.append(f"  {'metric':<44s} {'A':>12s} {'B':>12s}")
        for key, va, vb in changed:
            fa = f"{va:.4g}" if isinstance(va, (int, float)) else str(va)
            fb = f"{vb:.4g}" if isinstance(vb, (int, float)) else str(vb)
            lines.append(f"  {key:<44.44s} {fa:>12s} {fb:>12s}")

    claims_a = rec_a.get("claims") or {}
    claims_b = rec_b.get("claims") or {}
    drifted = []
    for key in sorted(set(claims_a) | set(claims_b)):
        ca = (claims_a.get(key) or {}).get("value")
        cb = (claims_b.get(key) or {}).get("value")
        if ca != cb:
            drifted.append((key, ca, cb))
    if drifted:
        lines.append("")
        lines.append(f"  {'claim':<44s} {'A':>12s} {'B':>12s}")
        for key, ca, cb in drifted:
            fa = f"{ca:.4g}" if isinstance(ca, (int, float)) else str(ca)
            fb = f"{cb:.4g}" if isinstance(cb, (int, float)) else str(cb)
            lines.append(f"  {key:<44.44s} {fa:>12s} {fb:>12s}")
    if len(lines) == 2:
        lines.append("  (records are identical in stages, metrics and "
                     "claims)")
    return "\n".join(lines)
