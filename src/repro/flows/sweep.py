"""Design-space flow sweeps with stage caching and ledger-backed resume.

:func:`run_flow_sweep` maps a list of flow option records through
:func:`repro.par.sweep.run_sweep_report`, so a survey gets the
supervised runner's guarantees (ordered reduce, per-task determinism,
span adoption, crash/hang/stall recovery under a
:class:`~repro.robust.retry.RetryPolicy`) *and* the engine's
fingerprint cache: sweep points that share a stage prefix -- same
netlist and synth options, different sizing/variation knobs -- compute
the prefix once and replay it everywhere else.

Serially (``workers <= 1``) the points share the process-global
in-memory cache.  Across worker processes the in-memory cache does not
travel, so a ``cache_dir`` spills stage blobs to disk where every
worker finds them; with the default fork start method workers also
inherit whatever the parent already cached.

On top of the stage cache sits *sweep resume*: when the run ledger is
recording, every completed point appends a ``kind="sweep.point"``
record carrying the full ``FlowResult.to_dict()`` under the point's
design fingerprint (:func:`point_fingerprint`) -- and because the
supervised runner adopts worker records the moment each task arrives,
the records survive a sweep killed halfway.  ``resume=True`` (the
CLI's ``--resume-sweep``) checks each point's fingerprint against the
ledger first and replays completed points from their records instead
of recomputing them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from repro.flows import cache as stage_cache
from repro.flows.options import (
    FlowOptions,
    digest,
    options_fingerprint,
)
from repro.flows.results import FlowError, FlowResult
from repro.obs import ledger as run_ledger
from repro.par.sweep import SweepReport, SweepStallError, run_sweep_report
from repro.robust.retry import RetryPolicy
from repro.tech.process import ProcessTechnology


def _point_style(options: FlowOptions) -> str:
    """Registered style a point's options record resolves to."""
    # Deferred: registry lookup imports the flow modules; keep the
    # sweep module importable without paying for the whole flow stack.
    from repro.flows.registry import backend_for_options

    return backend_for_options(options).name


def _point_tech_name(options: FlowOptions,
                     tech: ProcessTechnology | None) -> str:
    """The technology a point will actually run under, by name."""
    if tech is not None:
        return tech.name
    from repro.flows.registry import backend_for_options

    return backend_for_options(options).default_tech.name


def point_fingerprint(options: FlowOptions,
                      tech: ProcessTechnology | None = None) -> str:
    """Design-point identity for ledger-backed sweep resume.

    Policy knobs (``on_error``, ``fault``) are excluded via
    :func:`~repro.flows.options.options_fingerprint`, so a point
    completed under chaos injection still matches -- and resumes -- its
    clean rerun.
    """
    return digest({
        "kind": "sweep.point",
        "flow": _point_style(options),
        "options": options_fingerprint(options),
        "tech": _point_tech_name(options, tech),
    })


def _sweep_point(task: tuple) -> FlowResult:
    """Run one flow point (module-level, so pool workers can pickle it)."""
    options, tech, cache_dir = task
    if cache_dir is not None:
        stage_cache.configure(cache_dir)
    # Deferred: the flow modules import par.sweep's sibling machinery;
    # importing them lazily keeps worker startup minimal.
    from repro.flows.registry import backend_for_options, run_backend_flow

    backend = backend_for_options(options)
    result = run_backend_flow(backend, options, tech)
    if run_ledger.enabled():
        # The replayable record behind --resume-sweep.  In a worker
        # this lands in the buffer and is adopted by the parent the
        # moment the task's reply arrives, so a sweep killed later
        # keeps every completed point.
        run_ledger.record(run_ledger.RunRecord(
            kind="sweep.point",
            label=f"{result.style}.{options.workload}{options.bits}",
            fingerprint=point_fingerprint(options, tech),
            tech=result.technology.name,
            config=dataclasses.asdict(options),
            result=result.to_dict(),
        ))
    return result


def load_resume_points(
    option_sets: Sequence[FlowOptions],
    tech: ProcessTechnology | None = None,
) -> dict[int, FlowResult]:
    """Completed points replayable from the run ledger, by task index.

    Scans the active ledger's ``sweep.point`` records (newest wins per
    fingerprint) and rebuilds each matching point's
    :class:`FlowResult`; records that fail to rebuild are skipped --
    resume degrades to recompute, never to an error.
    """
    latest: dict[str, dict] = {}
    for rec in run_ledger.get_ledger().records(kind="sweep.point"):
        if rec.result:
            latest[rec.fingerprint] = rec.result
    precomputed: dict[int, FlowResult] = {}
    for index, options in enumerate(option_sets):
        payload = latest.get(point_fingerprint(options, tech))
        if payload is None:
            continue
        try:
            precomputed[index] = FlowResult.from_dict(payload)
        except (FlowError, TypeError, ValueError):
            continue
    return precomputed


def _sweep_fingerprint(option_sets: Sequence[FlowOptions],
                       tech: ProcessTechnology | None) -> str:
    return digest({
        "kind": "sweep",
        "points": [options_fingerprint(o) for o in option_sets],
        "tech": tech.name if tech is not None else None,
    })


def _record_sweep(option_sets: Sequence[FlowOptions],
                  tech: ProcessTechnology | None, workers: int,
                  cache_dir: str | None, label: str, wall_s: float,
                  report: SweepReport | None,
                  stall_reports: list[dict] | None = None) -> None:
    """Append the sweep-level ledger record (success or post-mortem)."""
    cache_stats = stage_cache.stats()
    metrics = {
        "points": len(option_sets),
        "workers": workers,
        "cache.stage.hits": int(cache_stats["hits"]),
        "cache.stage.misses": int(cache_stats["misses"]),
        "cache.stage.hit_rate": round(cache_stats["hit_rate"], 4),
    }
    failures: list[dict] = []
    diagnostics: list[dict] = []
    if report is not None:
        metrics.update({
            "retries": report.retries,
            "replays": len(report.replays),
            "quarantined": len(report.failures),
            "workers_lost": report.workers_lost,
        })
        failures.extend(f.to_dict() for f in report.failures)
        failures.extend({"kind": "stall", **r} for r in report.stalls)
        # Profile attribution aggregated across all points/workers:
        # total CPU burned and the worst per-stage heap peak.  Only
        # present when obs.profile was on, so plain sweep records are
        # unchanged.
        cpu_total, peak_kb, profiled = 0.0, 0.0, False
        for result in report.results:
            for stage in getattr(result, "stage_records", None) or []:
                if stage.cpu_s is not None:
                    cpu_total += stage.cpu_s
                    profiled = True
                if stage.peak_mem_kb is not None:
                    peak_kb = max(peak_kb, stage.peak_mem_kb)
                    profiled = True
        if profiled:
            metrics["profile.cpu_s"] = round(cpu_total, 6)
            metrics["profile.peak_mem_kb"] = round(peak_kb, 3)
        diagnostics.extend(
            {"code": "sweep.quarantined", "severity": "error",
             "message": str(f), "subject": f"task {f.index}", "hint": ""}
            for f in report.failures
        )
    if stall_reports:
        metrics["aborted"] = 1
        failures.extend({"kind": "stall", **r} for r in stall_reports)
        diagnostics.extend(
            {"code": "sweep.stalled", "severity": "error",
             "message": r.get("detail") or f"worker {r.get('source')} "
             f"silent {r.get('silent_s', 0):.2f}s",
             "subject": str(r.get("source", "")), "hint": ""}
            for r in stall_reports
        )
    run_ledger.record(run_ledger.RunRecord(
        kind="sweep",
        label=label,
        fingerprint=_sweep_fingerprint(option_sets, tech),
        tech=tech.name if tech is not None else "",
        config={"points": len(option_sets), "workers": workers,
                "cache_dir": cache_dir},
        wall_s=round(wall_s, 6),
        metrics=metrics,
        failures=failures,
        diagnostics=diagnostics,
    ))


def run_flow_sweep_report(
    option_sets: Sequence[FlowOptions],
    tech: ProcessTechnology | None = None,
    workers: int = 1,
    cache_dir: str | None = None,
    label: str = "flows.sweep",
    retry: RetryPolicy | None = None,
    resume: bool = False,
    chaos: str | None = None,
) -> SweepReport:
    """Run one flow per option record; return the full sweep report.

    Args:
        option_sets: flow option records; each point runs the backend
            its options class is registered under (see
            :func:`repro.flows.registry.backend_for_options`) -- plain
            :class:`FlowOptions` records run the ASIC flow.  Mixing
            styles in one sweep is fine.
        tech: technology override for every point (None = each flow's
            default).
        workers: process count; <= 1 runs serially in-process.
        cache_dir: directory for the shared on-disk stage cache (None =
            in-memory only; recommended whenever ``workers > 1``).
        retry: per-task fault-tolerance policy; None keeps fail-fast
            semantics.
        resume: replay points already completed in the run ledger
            (matched by :func:`point_fingerprint`) instead of
            recomputing them.
        chaos: fault-injection spec forwarded to the sweep runner
            (``kill-worker:N`` etc.) -- selftest/CI only.

    Returns:
        The runner's :class:`~repro.par.sweep.SweepReport`;
        ``report.results`` holds one :class:`FlowResult` per option
        record in input order (quarantined points hold
        :class:`~repro.robust.retry.TaskFailure` placeholders).

    Raises:
        SweepStallError: a worker stalled and no retry policy was
            armed; the sweep's ledger record still captures the stall
            reports for post-mortems.
    """
    for options in option_sets:
        if not isinstance(options, FlowOptions):
            raise FlowError(
                f"sweep points must be FlowOptions records, got "
                f"{type(options).__name__}"
            )
    if cache_dir is not None:
        stage_cache.configure(cache_dir)
    precomputed = None
    if resume and run_ledger.enabled():
        precomputed = load_resume_points(option_sets, tech)
    tasks = [(options, tech, cache_dir) for options in option_sets]
    started = time.perf_counter()
    try:
        report = run_sweep_report(
            _sweep_point, tasks, workers=workers, label=label,
            retry=retry, chaos=chaos, precomputed=precomputed,
        )
    except SweepStallError as exc:
        if run_ledger.enabled():
            # Post-mortem record: `runs show` sees what stalled even
            # though the sweep aborted.
            _record_sweep(option_sets, tech, workers, cache_dir, label,
                          time.perf_counter() - started, report=None,
                          stall_reports=exc.reports)
        raise
    if run_ledger.enabled():
        # One sweep-level record on top of the per-point records
        # (which the supervised runner merged in from the workers).
        _record_sweep(option_sets, tech, workers, cache_dir, label,
                      time.perf_counter() - started, report=report)
    return report


def run_flow_sweep(
    option_sets: Sequence[FlowOptions],
    tech: ProcessTechnology | None = None,
    workers: int = 1,
    cache_dir: str | None = None,
    label: str = "flows.sweep",
    retry: RetryPolicy | None = None,
    resume: bool = False,
    chaos: str | None = None,
) -> list[FlowResult]:
    """Run one flow per option record, in task order.

    Thin wrapper over :func:`run_flow_sweep_report` returning just the
    ordered results -- ``FlowResult`` per option record, identical for
    any worker count.
    """
    return run_flow_sweep_report(
        option_sets, tech=tech, workers=workers, cache_dir=cache_dir,
        label=label, retry=retry, resume=resume, chaos=chaos,
    ).results
