"""Deep profiling: CPU/memory attribution, flame graphs, perf budgets.

The rest of the observability stack answers *how long* a run took; this
module answers *where* the time and memory went.  Four pieces share the
file because they share one contract -- everything is opt-in, costs one
flag check when off, and never touches fingerprints:

* a module switch (mirroring ``obs.instrument``) plus ``stage_probe()``,
  the flow engine's hook that measures per-stage CPU seconds
  (``time.process_time``) and peak memory.  Memory attribution has two
  modes: ``"sampled"`` (default) polls the process RSS from a
  background thread -- a few percent overhead, peak resident KiB per
  stage -- while ``"trace"`` uses ``tracemalloc`` for exact traced-heap
  peaks at the cost of instrumenting every allocation (about an order
  of magnitude on allocation-heavy stages);
* self-time analysis over aggregated span entries: a hotspot rollup
  (exclusive milliseconds per span label) and the critical path of a
  run (the deepest-cost chain of the span tree);
* flame-graph export in Brendan Gregg's collapsed-stack format, derived
  from spans or from a ``cProfile`` capture, so any run opens in
  speedscope/inferno alongside the Chrome trace;
* perf budgets: ``PERF_BUDGETS.toml`` ceilings checked against
  ``BENCH_paperbench.json`` numbers, reported through the same
  ``Finding``/``RegressionReport`` machinery that gates regressions.

Profiling configuration lives here, *not* in ``FlowOptions``, so stage
fingerprints, goldens and sweep-resume ledgers are untouched whether
profiling is on or off.
"""

from __future__ import annotations

import re
import threading
import time
import tracemalloc
from dataclasses import dataclass

from repro.obs.ledger import _atomic_write_text
from repro.obs.regress import Finding, RegressionReport
from repro.obs.render import PATH_SEP
from repro.obs.trace import ObsError, Span

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on 3.10 CI only
    _toml = None

#: Budget sections recognised in PERF_BUDGETS.toml, by unit.
BUDGET_SECTIONS = {"wall": "s", "cpu": "s", "mem": "kb", "kernel": "us"}

#: Memory-attribution modes: cheap sampled RSS vs exact traced heap.
MEM_MODES = ("sampled", "trace")

# ---------------------------------------------------------------------------
# Module switch (same shape as obs.instrument: off = one flag check).

_cpu = False
_mem: str | None = None  # None (off), "sampled" or "trace"


def _coerce_mem(mem) -> str | None:
    if mem is False:
        return None
    if mem is True:
        return "sampled"
    if mem in MEM_MODES:
        return str(mem)
    raise ObsError(f"unknown memory-profiling mode {mem!r} "
                   f"(expected one of {list(MEM_MODES)})")


def configure(*, cpu: bool | None = None,
              mem: bool | str | None = None) -> None:
    """Turn CPU and/or peak-memory attribution on or off.

    ``None`` leaves that dimension unchanged, so callers can flip one
    axis without knowing the other.  ``mem`` accepts ``True`` (alias
    for ``"sampled"``: peak process RSS polled from a background
    thread, a few percent overhead), ``"trace"`` (exact ``tracemalloc``
    traced-heap peaks, roughly 10x on allocation-heavy stages) or
    ``False`` (off).
    """
    global _cpu, _mem
    if cpu is not None:
        _cpu = bool(cpu)
    if mem is not None:
        _mem = _coerce_mem(mem)


def enabled() -> bool:
    return _cpu or _mem is not None


def cpu_enabled() -> bool:
    return _cpu


def mem_enabled() -> bool:
    return _mem is not None


def mem_mode() -> str | None:
    """The active memory mode: ``"sampled"``, ``"trace"`` or ``None``."""
    return _mem


def snapshot() -> tuple[bool, str | None]:
    """Picklable config for shipping to ``par.sweep`` workers."""
    return (_cpu, _mem)


def apply(config: tuple[bool, str | None] | None) -> None:
    """Adopt a parent's :func:`snapshot` inside a worker process."""
    if config is not None:
        configure(cpu=config[0],
                  mem=config[1] if config[1] is not None else False)


def reset_state() -> None:
    global _cpu, _mem
    _cpu = False
    _mem = None


# ---------------------------------------------------------------------------
# Per-stage probe (the flow engine's hook).


class _NoopProbe:
    """Zero-cost stand-in when profiling is off."""

    __slots__ = ()
    active = False
    cpu_s: float | None = None
    peak_mem_kb: float | None = None

    def __enter__(self) -> "_NoopProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def span_attrs(self) -> dict:
        return {}


NOOP_PROBE = _NoopProbe()


def _rss_kb() -> float | None:
    """Current process resident set in KiB, or None off-Linux."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        return None


try:
    import os as _os
    _PAGE_KB = _os.sysconf("SC_PAGE_SIZE") / 1024.0
except (ImportError, AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_KB = 4.0
#: Whether sampled RSS attribution can work here at all.
_RSS_AVAILABLE = _rss_kb() is not None


class _RssSampler(threading.Thread):
    """Daemon thread polling the process RSS while a stage runs."""

    def __init__(self, interval_s: float = 0.001):
        super().__init__(name="repro-rss-sampler", daemon=True)
        self._interval_s = interval_s
        self._done = threading.Event()
        self.peak_kb = 0.0

    def run(self) -> None:
        while not self._done.wait(self._interval_s):
            rss = _rss_kb()
            if rss is not None and rss > self.peak_kb:
                self.peak_kb = rss

    def stop(self) -> float:
        self._done.set()
        self.join(timeout=1.0)
        return self.peak_kb


class StageProbe:
    """Measures one stage: CPU seconds and a peak-memory figure.

    The memory figure depends on the mode: ``"sampled"`` reports the
    stage's peak process RSS in KiB (polled at ~1 kHz, plus synchronous
    reads at entry and exit so sub-millisecond stages still get a
    number); ``"trace"`` reports the exact ``tracemalloc`` traced-heap
    peak.  ``tracemalloc`` does not nest, so in trace mode the probe
    only starts tracing if nobody else is (and only then stops it);
    when tracing is already on -- an outer probe, a test harness -- it
    resets the peak counter and reads the high-water mark accumulated
    inside the ``with`` block.  On platforms without ``/proc``,
    sampled mode silently upgrades to trace so the ledger always gets
    a peak when memory attribution was requested.
    """

    __slots__ = ("active", "cpu_s", "peak_mem_kb", "_cpu", "_mem",
                 "_cpu0", "_started_tracing", "_sampler", "_rss0")

    def __init__(self, *, cpu: bool, mem: str | None):
        self.active = True
        self.cpu_s: float | None = None
        self.peak_mem_kb: float | None = None
        self._cpu = cpu
        if mem == "sampled" and not _RSS_AVAILABLE:  # pragma: no cover
            mem = "trace"
        self._mem = mem
        self._cpu0 = 0.0
        self._started_tracing = False
        self._sampler: _RssSampler | None = None
        self._rss0 = 0.0

    def __enter__(self) -> "StageProbe":
        if self._mem == "trace":
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                self._started_tracing = True
        elif self._mem == "sampled":
            self._rss0 = _rss_kb() or 0.0
            self._sampler = _RssSampler()
            self._sampler.start()
        if self._cpu:
            self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._cpu:
            self.cpu_s = round(time.process_time() - self._cpu0, 6)
        if self._mem == "trace" and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.peak_mem_kb = round(peak / 1024.0, 3)
            if self._started_tracing:
                tracemalloc.stop()
        elif self._sampler is not None:
            peak = self._sampler.stop()
            self._sampler = None
            peak = max(peak, self._rss0, _rss_kb() or 0.0)
            self.peak_mem_kb = round(peak, 3)
        return None

    def span_attrs(self) -> dict:
        attrs = {}
        if self.cpu_s is not None:
            attrs["cpu_s"] = self.cpu_s
        if self.peak_mem_kb is not None:
            attrs["peak_mem_kb"] = self.peak_mem_kb
        return attrs


def stage_probe():
    """The engine's per-stage hook: noop unless profiling is on."""
    if not (_cpu or _mem):
        return NOOP_PROBE
    return StageProbe(cpu=_cpu, mem=_mem)


# ---------------------------------------------------------------------------
# Self-time analysis over aggregated span entries.
#
# Both inputs work: live ``aggregate_spans(tracer.finished())`` output
# and the ``spans`` list persisted in a ledger RunRecord -- they are the
# same shape ({path, name, depth, calls, total_ms, self_ms, ...}).


@dataclass(frozen=True)
class Hotspot:
    """One row of the self-time rollup.

    Attributes:
        name: span label, aggregated across every call path.
        calls: total invocations.
        self_ms: exclusive milliseconds (time not in child spans).
        total_ms: inclusive milliseconds.
        self_pct: share of the run's total self time, 0..100.
    """

    name: str
    calls: int
    self_ms: float
    total_ms: float
    self_pct: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "self_ms": self.self_ms,
            "total_ms": self.total_ms,
            "self_pct": self.self_pct,
        }


def self_time_rollup(entries: list[dict]) -> list[Hotspot]:
    """Exclusive time per span label, hottest first.

    Self time already never double-counts (a parent's excludes its
    children's), so summing it across call paths is exact: the rows
    add up to the run's wall time even with nested, overlapping or
    adopted worker spans in the tree.
    """
    by_name: dict[str, list[float]] = {}
    for entry in entries:
        row = by_name.setdefault(str(entry.get("name", "?")),
                                 [0.0, 0.0, 0.0])
        row[0] += float(entry.get("calls", 0))
        row[1] += float(entry.get("self_ms", 0.0))
        row[2] += float(entry.get("total_ms", 0.0))
    grand_self = sum(row[1] for row in by_name.values())
    hotspots = [
        Hotspot(
            name=name,
            calls=int(row[0]),
            self_ms=round(row[1], 6),
            total_ms=round(row[2], 6),
            self_pct=round(100.0 * row[1] / grand_self, 2)
            if grand_self > 0 else 0.0,
        )
        for name, row in by_name.items()
    ]
    hotspots.sort(key=lambda h: (-h.self_ms, h.name))
    return hotspots


def critical_path(entries: list[dict]) -> list[dict]:
    """The deepest-cost chain: heaviest root, then heaviest child, down.

    Returns the chain of aggregated entries from the most expensive
    root to the leaf reached by always descending into the child call
    path with the largest inclusive time.  This is the run's "critical
    path" in the scheduling sense: the chain a speedup must shorten to
    move the total.
    """
    by_path: dict[tuple, dict] = {}
    children: dict[tuple, list[tuple]] = {}
    for entry in entries:
        path = tuple(str(entry.get("path", "")).split(PATH_SEP))
        by_path[path] = entry
        if len(path) > 1:
            children.setdefault(path[:-1], []).append(path)

    def weight(path: tuple) -> float:
        return float(by_path[path].get("total_ms", 0.0))

    roots = [p for p in by_path if len(p) == 1]
    if not roots:
        return []
    chain = []
    node = max(roots, key=lambda p: (weight(p), p))
    while True:
        chain.append(by_path[node])
        kids = [k for k in children.get(node, ()) if k in by_path]
        if not kids:
            return chain
        node = max(kids, key=lambda p: (weight(p), p))


def render_hotspots(hotspots: list[Hotspot], limit: int = 15) -> str:
    """Self-time hotspot table, hottest label first."""
    if not hotspots:
        return "no spans recorded"
    lines = [f"{'span (by self time)':<44s} {'calls':>6s} "
             f"{'self ms':>10s} {'self %':>7s} {'total ms':>10s}"]
    for spot in hotspots[:limit]:
        lines.append(
            f"{spot.name:<44.44s} {spot.calls:>6d} "
            f"{spot.self_ms:>10.3f} {spot.self_pct:>6.1f}% "
            f"{spot.total_ms:>10.3f}"
        )
    hidden = len(hotspots) - limit
    if hidden > 0:
        lines.append(f"... {hidden} more label(s)")
    return "\n".join(lines)


def render_critical_path(entries: list[dict]) -> str:
    """The critical path as an indented chain with cumulative share."""
    chain = critical_path(entries)
    if not chain:
        return "no spans recorded"
    root_ms = float(chain[0].get("total_ms", 0.0))
    lines = ["critical path (heaviest chain):"]
    for depth, entry in enumerate(chain):
        total_ms = float(entry.get("total_ms", 0.0))
        pct = 100.0 * total_ms / root_ms if root_ms > 0 else 0.0
        lines.append(
            f"  {'  ' * depth}{entry.get('name', '?'):<30.30s} "
            f"{total_ms:>10.3f} ms  {pct:>5.1f}%"
        )
    return "\n".join(lines)


def render_self_report(entries: list[dict], limit: int = 15) -> str:
    """Hotspot table plus the critical path, for ``stats --self``."""
    return "\n".join([
        render_hotspots(self_time_rollup(entries), limit=limit),
        "",
        render_critical_path(entries),
    ])


# ---------------------------------------------------------------------------
# Flame graphs (Brendan Gregg collapsed-stack format).

_FRAME_UNSAFE = re.compile(r"[;\s]+")


def _frame(name: str) -> str:
    """Collapsed-stack frames cannot contain ';' or whitespace."""
    return _FRAME_UNSAFE.sub("_", name) or "?"


def spans_to_collapsed(spans: list[Span]) -> list[str]:
    """Collapsed stacks from finished spans, one line per call path.

    Each line is ``root;child;leaf <self-time-microseconds>``; summing
    a frame's subtree reconstructs its inclusive time, which is exactly
    the flame-graph contract.  Open spans and zero-self-time paths are
    skipped.
    """
    by_index = {span.index: span for span in spans}
    weights: dict[tuple, int] = {}
    for span in spans:
        if span.end_s is None:
            continue
        value = int(round(span.self_s * 1e6))
        if value <= 0:
            continue
        stack = [_frame(span.name)]
        parent = span.parent
        seen = {span.index}
        while parent is not None and parent in by_index:
            if parent in seen:  # defensive: corrupt adoption loop
                break
            seen.add(parent)
            node = by_index[parent]
            stack.append(_frame(node.name))
            parent = node.parent
        key = tuple(reversed(stack))
        weights[key] = weights.get(key, 0) + value
    return [f"{';'.join(stack)} {value}"
            for stack, value in sorted(weights.items())]


def cprofile_to_collapsed(profiler) -> list[str]:
    """Collapsed stacks from a ``cProfile.Profile`` capture.

    cProfile keeps one caller level, not full stacks, so the output is
    caller;callee pairs weighted by the callee's internal time on that
    edge -- shallow but faithful: frame widths still rank the real CPU
    hotspots and the file opens in any flame-graph viewer.
    """
    import pstats

    stats = pstats.Stats(profiler).stats  # noqa: SLF001 - public enough

    def label(func: tuple) -> str:
        filename, lineno, name = func
        if filename.startswith("<") or filename == "~":
            return _frame(name)
        short = filename.rsplit("/", 1)[-1]
        return _frame(f"{short}:{lineno}:{name}")

    weights: dict[tuple, int] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if callers:
            for caller, (_ccc, _ncc, caller_tt, _cct) in callers.items():
                value = int(round(caller_tt * 1e6))
                if value > 0:
                    key = (label(caller), label(func))
                    weights[key] = weights.get(key, 0) + value
        else:
            value = int(round(tt * 1e6))
            if value > 0:
                key = (label(func),)
                weights[key] = weights.get(key, 0) + value
    return [f"{';'.join(stack)} {value}"
            for stack, value in sorted(weights.items())]


def write_collapsed(lines: list[str], path: str) -> int:
    """Atomically write collapsed stacks; returns the line count."""
    _atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ---------------------------------------------------------------------------
# Perf budgets.


def _parse_budget_toml(text: str) -> dict:
    """Minimal TOML subset parser for budget files (3.10 fallback).

    Handles ``[section]`` headers, ``"quoted key" = number`` /
    ``bare_key = number`` assignments, comments and blank lines --
    which is the entire PERF_BUDGETS.toml grammar.
    """
    doc: dict[str, dict] = {}
    section: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = doc.setdefault(line[1:-1].strip(), {})
            continue
        if "=" not in line:
            raise ObsError(f"budget file line {lineno}: expected "
                           f"'key = value', got {line!r}")
        if section is None:
            raise ObsError(f"budget file line {lineno}: assignment "
                           "before any [section]")
        key, _, value = line.partition("=")
        key = key.strip().strip('"')
        value = value.split("#", 1)[0].strip()
        try:
            section[key] = float(value)
        except ValueError as exc:
            raise ObsError(f"budget file line {lineno}: "
                           f"non-numeric ceiling {value!r}") from exc
    return doc


def load_budgets(path: str) -> dict:
    """Load ``PERF_BUDGETS.toml``: {section: {bench key: ceiling}}.

    Sections must be a subset of :data:`BUDGET_SECTIONS` and every
    ceiling a positive number; raises :class:`ObsError` otherwise.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if _toml is not None:
        try:
            doc = _toml.loads(raw.decode("utf-8"))
        except _toml.TOMLDecodeError as exc:
            raise ObsError(f"budget file {path}: {exc}") from exc
    else:  # pragma: no cover - 3.10 fallback
        doc = _parse_budget_toml(raw.decode("utf-8"))
    budgets: dict[str, dict[str, float]] = {}
    for section, table in doc.items():
        if section not in BUDGET_SECTIONS:
            raise ObsError(
                f"budget file {path}: unknown section [{section}] "
                f"(expected one of {sorted(BUDGET_SECTIONS)})")
        if not isinstance(table, dict):
            raise ObsError(f"budget file {path}: [{section}] must be "
                           "a table of 'bench key = ceiling'")
        clean: dict[str, float] = {}
        for key, ceiling in table.items():
            if not isinstance(ceiling, (int, float)) \
                    or isinstance(ceiling, bool) or ceiling <= 0:
                raise ObsError(
                    f"budget file {path}: [{section}] {key!r} ceiling "
                    f"must be a positive number, got {ceiling!r}")
            clean[str(key)] = float(ceiling)
        budgets[section] = clean
    return budgets


def check_budgets(budgets: dict, bench: dict, *,
                  label: str = "BENCH_paperbench.json",
                  headroom_warn: float = 0.9) -> RegressionReport:
    """Check measured bench numbers against their budget ceilings.

    Each present measurement over its ceiling is a ``fail`` finding;
    within ``headroom_warn`` of the ceiling is a ``warn`` (the budget
    is about to be blown); a budgeted key missing from the bench file
    is an ``info`` (the benchmark was not run).  A benchmark whose
    claims are not all in band (``claims.<test>.ok`` below
    ``claims.<test>.total``) is a ``fail`` too: a fast run that no
    longer reproduces the paper is not within budget.  Findings ride
    the same :class:`~repro.obs.regress.RegressionReport` the
    regression gate uses, so ``--gate`` and ``--json`` come for free.
    """
    report = RegressionReport(current_id="budget", current_label=label)
    findings = []
    for section in sorted(budgets):
        unit = BUDGET_SECTIONS.get(section, "")
        for key, ceiling in sorted(budgets[section].items()):
            report.checks += 1
            value = bench.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                findings.append(Finding(
                    kind=f"budget_{section}", key=key,
                    current=float("nan"), baseline=ceiling,
                    severity="info",
                    detail="no measurement in bench file"))
                continue
            value = float(value)
            if value > ceiling:
                findings.append(Finding(
                    kind=f"budget_{section}", key=key,
                    current=value, baseline=ceiling, severity="fail",
                    detail=f"{value:.6g} {unit} over the "
                           f"{ceiling:.6g} {unit} ceiling "
                           f"({100.0 * value / ceiling - 100.0:+.1f}%)"))
            elif value > headroom_warn * ceiling:
                findings.append(Finding(
                    kind=f"budget_{section}", key=key,
                    current=value, baseline=ceiling, severity="warn",
                    detail=f"within {100.0 * (1.0 - headroom_warn):.0f}% "
                           f"of the {ceiling:.6g} {unit} ceiling"))
    for key in sorted(bench):
        if not (key.startswith("claims.") and key.endswith(".total")):
            continue
        name = key[:-len(".total")]
        report.checks += 1
        total, ok = bench[key], bench.get(f"{name}.ok", 0)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (total, ok)):
            findings.append(Finding(
                kind="claims", key=name, current=float("nan"),
                baseline=float("nan"), severity="fail",
                detail="claim counts are not numbers"))
        elif ok < total:
            findings.append(Finding(
                kind="claims", key=name, current=float(ok),
                baseline=float(total), severity="fail",
                detail=f"{total - ok:.0f} of {total:.0f} claims out of "
                       "band"))
    order = {"fail": 0, "warn": 1, "info": 2}
    findings.sort(key=lambda f: (order.get(f.severity, 3), f.kind, f.key))
    report.findings = findings
    return report
