"""Command-line interface for the reproduction.

Installed as ``repro-gap``.  Subcommands cover the analyses a user would
want without writing Python:

* ``survey``    -- the Section 2 chip survey and headline gap;
* ``factors``   -- the Section 3 factor table and Section 9 residuals;
* ``flow``      -- run one implementation flow (any registered style:
  asic, custom, structured, plus plugins) and print its result;
* ``gap``       -- run several styles (``--styles``, default asic vs
  custom) and decompose the measured gap against a ``--baseline``;
* ``roadmap``   -- project the gap over future process generations;
* ``library``   -- summarise or export a generated cell library;
* ``variation`` -- sample a die population and print the Section 8
  quoting decomposition;
* ``stats``     -- run an instrumented gap comparison and print the
  observability report (span tree + metrics); ``stats --top N`` prints
  the N hottest span labels by self time from the last ledger record
  instead of running anything;
* ``runs``      -- the persistent run ledger: ``runs list`` shows the
  recorded trajectory, ``runs show`` renders one record (claims, stage
  waterfall, span tree), ``runs diff`` compares two records, and
  ``runs regress`` checks the newest run against the median of its
  matching-fingerprint baseline (``--gate`` exits nonzero on a
  regression);
* ``top``       -- live dashboard over an ``--events FILE`` JSONL
  stream (``--follow`` to watch a run in progress from another
  terminal);
* ``selftest``  -- fault-injection health check of the whole stack
  (exit 0 when every guard catches its fault, 1 otherwise).

Every command that runs a flow, bench, sweep, variation or selftest
appends a structured run record to the ledger directory
(``.repro_runs/`` or ``$REPRO_RUNS_DIR``; override with ``--runs-dir``,
disable with ``--no-ledger``) -- that trajectory is what ``runs
regress`` watches.

``flow`` and ``gap`` accept ``--keep-going`` to degrade through stage
failures instead of aborting (failures land in the ``diagnostics`` list
of the ``--json`` output), and ``flow`` accepts ``--inject-fault STAGE``
to trip a deliberate fault for exercising that path.  A flow abort
exits with status 2 and names the failing stage.

``flow`` also surfaces the stage-graph engine: ``--list-stages`` prints
each flow's declarative graph (inputs, outputs, fingerprint params);
``--checkpoint FILE`` snapshots the context after every stage;
``--resume`` (optionally with ``--from STAGE``) restores the completed
prefix from that file; ``--until STAGE`` stops after the named stage
and prints the per-stage records; ``--no-cache`` disables the stage
fingerprint cache.  ``bench --json`` reports per-stage wall times as
``flow.stage.<name>.s`` plus the stage-cache hit rate.

The output flags are declared once, in ``_OUTPUT_FLAGS``, with the
commands that read them; a command rejects the others (exit 2).
``--profile`` prints a per-stage span/metric report after the command,
and ``--trace FILE`` writes the span tree as JSON-lines.  Both work
before or after the subcommand name for the commands that read them.

Live telemetry rides the same flags: ``--events FILE`` streams bus
events (span opens/closes, flow-stage progress, sweep task
completions, worker heartbeats) to FILE as JSON lines *while the
command runs*; ``--live`` renders a terminal dashboard from the same
stream; ``--stall-timeout S`` turns a silent pool worker into a
structured diagnostic (exit 4) instead of a hung sweep; and
``--trace-chrome FILE`` exports the span tree in Chrome Trace Event
format for chrome://tracing or ui.perfetto.dev.

``sweep`` runs a fault-tolerant design-space sweep over a bits x
pipeline-stages grid: worker crashes, task hangs and stalls are
retried under a deterministic :class:`~repro.robust.retry.RetryPolicy`
(``--max-attempts``, ``--backoff-s``, ``--task-timeout``; ``--no-retry``
restores fail-fast), tasks that exhaust retries are quarantined
(sweep completes, exit 5), ``--resume-sweep`` replays points already
completed in the run ledger, and ``--chaos SPEC`` injects a
process-level fault (``kill-worker:N``, ``hang-task:N``,
``crash-task:N``, ``corrupt-result:N``) for drills.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys


def _cmd_survey(_args: argparse.Namespace) -> int:
    from repro.core import gap_summary

    print(gap_summary())
    return 0


def _cmd_factors(_args: argparse.Namespace) -> int:
    from repro.core import FactorModel

    model = FactorModel()
    print(model.table())
    print()
    top_two = model.residual_after(["microarchitecture", "process_variation"])
    top_three = model.residual_after(
        ["microarchitecture", "process_variation", "dynamic_logic"]
    )
    print(f"residual after pipelining + variation: {top_two:.2f}x")
    print(f"residual adding dynamic logic:         {top_three:.2f}x")
    return 0


def _flow_error_exit(exc, as_json: bool) -> int:
    """Report a flow abort: name the failing stage, exit status 2."""
    if as_json:
        print(json.dumps({
            "error": str(exc),
            "stage": exc.stage,
            "cause": type(exc.__cause__).__name__
            if exc.__cause__ is not None else None,
        }, indent=2, sort_keys=True))
    else:
        stage = f" at stage {exc.stage!r}" if exc.stage else ""
        print(f"repro-gap: flow failed{stage}: {exc}", file=sys.stderr)
    return 2


def _on_error(args: argparse.Namespace) -> str:
    """The flow failure policy ``--keep-going`` selects."""
    return "keep_going" if getattr(args, "keep_going", False) else "raise"


@contextlib.contextmanager
def _obs_recording(wanted: bool = True):
    """Record spans and metrics for the block unless already recording.

    The tracer is switched off again on the way out, also when the
    block raises, so a failed run does not leave it on for the next
    in-process command.
    """
    from repro import obs

    owned = wanted and not obs.enabled()
    if owned:
        obs.enable()
    try:
        yield
    finally:
        if owned:
            obs.disable()


def _run_styles(args: argparse.Namespace, styles: list[str]) -> list:
    """Run each style at the ``gap`` design point (``gap`` and ``stats``)."""
    from repro.flows.registry import get_backend, run_backend_flow

    results = []
    for style in styles:
        backend = get_backend(style)
        results.append(run_backend_flow(backend, backend.gap_options(
            bits=args.bits, sizing_moves=args.sizing_moves,
            target_fo4=args.target_fo4, on_error=_on_error(args),
        )))
    return results


def _flow_until(args: argparse.Namespace, backend, options) -> int:
    """Partial flow run (``--until STAGE``): engine-direct, no result.

    Stops after the named stage; the remaining stages are recorded as
    skipped, so there is no finalised :class:`FlowResult` -- the output
    is the per-stage record table (and notes so far).  With
    ``--checkpoint`` the partial context is snapshotted, and a later
    ``--resume`` run without ``--until`` completes the flow.
    """
    from repro.flows import FlowEngine
    from repro.flows.asic import check_workload
    from repro.obs.render import render_waterfall

    check_workload(options)
    ctx = FlowEngine(backend.graph).run(
        options, backend.default_tech, checkpoint=args.checkpoint,
        resume=args.resume, from_stage=args.from_stage, until=args.until,
    )
    if args.json:
        print(json.dumps(
            {
                "flow": args.style,
                "until": args.until,
                "stages": [r.to_dict() for r in ctx.stage_records],
                "notes": ctx.notes,
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{args.style} flow, stopped after {args.until!r}:")
    print(render_waterfall([r.to_dict() for r in ctx.stage_records]))
    for key, value in sorted(ctx.notes.items()):
        print(f"  {key}: {value:.2f}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.flows import FlowError
    from repro.flows import cache as stage_cache
    from repro.flows.registry import (
        backend_names,
        get_backend,
        run_backend_flow,
    )

    if args.list_stages:
        chosen = ([get_backend(args.style)] if args.style
                  else [get_backend(name) for name in backend_names()])
        print("\n\n".join(b.graph.describe() for b in chosen))
        return 0
    if args.style is None:
        print("repro-gap: flow requires a style "
              f"({', '.join(backend_names())}) unless --list-stages is "
              "given", file=sys.stderr)
        return 2

    backend = get_backend(args.style)
    options = backend.options(
        workload=args.workload, bits=args.bits,
        pipeline_stages=args.stages, sizing_moves=args.sizing_moves,
        seed=args.seed, on_error=_on_error(args), fault=args.inject_fault,
        use_array=not args.no_array, check_array=args.check_array,
        rich_library=not args.poor_library,
        careful_placement=not args.sloppy_placement,
        target_cycle_fo4=args.target_fo4,
        fabric_utilization=args.fabric_utilization,
        # Only when given: structured parts are speed-tested by default.
        speed_test=args.speed_test or None,
    )
    if args.no_cache:
        stage_cache.set_enabled(False)
    try:
        if args.until is not None:
            return _flow_until(args, backend, options)
        result = run_backend_flow(
            backend, options, checkpoint=args.checkpoint,
            resume=args.resume, from_stage=args.from_stage,
        )
    except FlowError as exc:
        return _flow_error_exit(exc, args.json)
    finally:
        if args.no_cache:
            stage_cache.set_enabled(True)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.summary())
    for key, value in sorted(result.notes.items()):
        print(f"  {key}: {value:.2f}")
    for diag in result.diagnostics:
        print(f"  {diag}")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    """Run N implementation styles and decompose the measured gap.

    The default comparison is the paper's (asic vs custom); ``--styles``
    picks any subset of the registered backends and ``--baseline`` the
    denominator of every factor.  The classic two-style output (table
    wording, JSON top-level factor keys) is preserved whenever exactly
    asic and custom are compared with the asic baseline.
    """
    from repro.core import analyze_multi_gap
    from repro.flows import FlowError

    styles = args.styles or ["asic", "custom"]
    if args.baseline not in styles:
        print(f"repro-gap: --baseline {args.baseline!r} must be one of "
              f"the compared styles ({', '.join(styles)})",
              file=sys.stderr)
        return 2
    try:
        results = _run_styles(args, styles)
    except FlowError as exc:
        return _flow_error_exit(exc, args.json)
    gap = analyze_multi_gap(results, baseline=args.baseline)
    two_way = (sorted(styles) == ["asic", "custom"]
               and args.baseline == "asic")
    if args.json:
        payload: dict = {
            result.style: result.to_dict() for result in results
        }
        payload["baseline"] = gap.baseline.style
        payload["pairwise"] = gap.to_dict()["pairwise"]
        if two_way:
            # Legacy top-level factor keys of the original asic-vs-
            # custom comparison, for existing consumers.
            report = gap.report_for("custom")
            payload["total_ratio"] = report.total_ratio
            payload["cycle_depth_factor"] = report.cycle_depth_factor
            payload["technology_factor"] = report.technology_factor
            payload["quoting_factor"] = report.quoting_factor
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for result in results:
        print(result.summary())
    print()
    if two_way:
        print(gap.report_for("custom").table())
    else:
        print(gap.table())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run an instrumented ASIC-vs-custom comparison, print the profile.

    With ``--top N`` or ``--self`` nothing is run: the most recent
    ledger record that carries a span tree answers instead (the first N
    rows of the self-time hotspot rollup, or all of it plus the critical
    path), so the hot-spot question does not need a live tracer.
    """
    import time as _time

    from repro import obs
    from repro.obs import ledger as run_ledger
    from repro.obs import render

    if args.top is not None or args.hotspots:
        from repro.obs import profile as obs_profile

        for record in reversed(run_ledger.get_ledger().records()):
            if record.spans:
                print(f"run {record.run_id} ({record.kind}, "
                      f"{record.label}):")
                if args.top is not None:
                    print(obs_profile.render_hotspots(
                        obs_profile.self_time_rollup(record.spans),
                        limit=args.top,
                    ))
                if args.hotspots:
                    print(obs_profile.render_self_report(record.spans))
                return 0
        print("repro-gap: no ledger record with a span tree found "
              f"under {run_ledger.runs_dir()!r}; run e.g. "
              "`repro-gap stats` first", file=sys.stderr)
        return 1

    with _obs_recording():
        started = _time.perf_counter()
        results = _run_styles(args, ["asic", "custom"])
        wall_s = _time.perf_counter() - started
        for result in results:
            print(result.summary())
        print()
        print(obs.render_report())
        if args.metrics_json:
            written = obs.write_metrics(obs.get_metrics(),
                                        args.metrics_json)
            print(f"\nwrote {written} metric keys to {args.metrics_json}")
        if run_ledger.enabled():
            from repro.flows.options import digest

            run_ledger.record(run_ledger.RunRecord(
                kind="stats",
                label=f"gap{args.bits}",
                fingerprint=digest({
                    "kind": "stats",
                    "bits": args.bits,
                    "target_fo4": args.target_fo4,
                    "sizing_moves": args.sizing_moves,
                }),
                config={"bits": args.bits, "target_fo4": args.target_fo4,
                        "sizing_moves": args.sizing_moves},
                wall_s=round(wall_s, 6),
                metrics=obs.metrics_to_flat(obs.get_metrics()),
                spans=render.aggregate_spans(obs.get_tracer().finished()),
            ))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Fault-injection health check over the whole stack."""
    from repro.robust import (
        disable_guard,
        enable_all_guards,
        run_selftest,
    )

    try:
        for name in args.disable_guard:
            disable_guard(name)
        reports = run_selftest(seed=args.seed)
    finally:
        enable_all_guards()
    failed = [r for r in reports if not r.passed]
    if args.json:
        print(json.dumps(
            {
                "passed": not failed,
                "scenarios": [r.to_dict() for r in reports],
            },
            indent=2, sort_keys=True,
        ))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.fault:28s} {r.outcome:20s} {r.detail}")
        print(f"\n{len(reports) - len(failed)}/{len(reports)} scenarios "
              "passed")
        if failed:
            print("selftest FAILED: a guard or validator did not catch "
                  "its fault", file=sys.stderr)
    return 1 if failed else 0


def _cmd_roadmap(args: argparse.Namespace) -> int:
    from repro.core import asymptotic_gap, project_gap, roadmap_table

    points = project_gap(
        generations=args.generations, initial_gap=args.initial_gap
    )
    print(roadmap_table(points))
    print(
        f"asymptote (custom-only factors): "
        f"{asymptotic_gap(args.initial_gap):.2f}x"
    )
    return 0


def _cmd_library(args: argparse.Namespace) -> int:
    from repro.cells import (
        custom_library,
        domino_library,
        poor_asic_library,
        rich_asic_library,
        to_liberty,
    )
    from repro.tech import get_technology

    tech = get_technology(args.technology)
    builders = {
        "rich": rich_asic_library,
        "poor": poor_asic_library,
        "custom": custom_library,
        "domino": domino_library,
    }
    library = builders[args.kind](tech)
    print(library.summary())
    if args.liberty:
        text = to_liberty(library)
        with open(args.liberty, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes to {args.liberty}")
    return 0


def _cmd_variation(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs import ledger as run_ledger
    from repro.variation import (
        MATURE_PROCESS,
        NEW_PROCESS,
        access_gap,
        sample_chip_speeds,
    )

    components = NEW_PROCESS if args.process == "new" else MATURE_PROCESS
    started = _time.perf_counter()
    dist = sample_chip_speeds(
        args.nominal, components, count=args.count, seed=args.seed,
        workers=args.workers,
    )
    wall_s = _time.perf_counter() - started
    gap = access_gap(dist)
    if run_ledger.enabled():
        from repro.flows.options import digest

        run_ledger.record(run_ledger.RunRecord(
            kind="variation",
            label=f"{args.process}.n{args.count}",
            fingerprint=digest({
                "kind": "variation",
                "process": args.process,
                "nominal": args.nominal,
                "count": args.count,
                "seed": args.seed,
            }),
            config={"process": args.process, "nominal": args.nominal,
                    "count": args.count, "seed": args.seed,
                    "workers": args.workers},
            wall_s=round(wall_s, 6),
            metrics={
                "variation.typical_mhz": round(gap.typical_mhz, 3),
                "variation.asic_quote_mhz": round(gap.asic_quote_mhz, 3),
                "variation.tested_mhz": round(gap.tested_mhz, 3),
                "variation.flagship_mhz": round(gap.flagship_mhz, 3),
                "variation.spread": round(dist.spread, 4),
            },
        ))
    print(f"nominal design frequency : {args.nominal:8.1f} MHz")
    print(f"median silicon           : {gap.typical_mhz:8.1f} MHz")
    print(f"ASIC worst-case quote    : {gap.asic_quote_mhz:8.1f} MHz")
    print(f"speed-tested quote       : {gap.tested_mhz:8.1f} MHz")
    print(f"custom flagship bin      : {gap.flagship_mhz:8.1f} MHz")
    print(f"typical/quote {gap.typical_over_quote:.2f}x   "
          f"flagship/quote {gap.flagship_over_quote:.2f}x   "
          f"bin spread {dist.spread:.2f}x")
    return 0


def _int_list(text: str) -> list[int]:
    """Argparse type: comma-separated ints (a sweep grid axis)."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _chaos_spec(text: str) -> str:
    """Argparse type: validate a sweep chaos spelling early."""
    from repro.robust.faults import FaultInjectionError, SweepChaos

    try:
        SweepChaos.parse(text)
    except FaultInjectionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Fault-tolerant design-space sweep over a bits x stages grid."""
    from repro.flows import FlowError
    from repro.flows.registry import get_backend
    from repro.flows.sweep import run_flow_sweep_report
    from repro.robust.retry import RetryError, RetryPolicy, TaskFailure

    backend = get_backend(args.style)
    option_sets = [
        backend.options(
            workload=args.workload, bits=bits, pipeline_stages=stages,
            sizing_moves=args.sizing_moves, seed=args.seed,
            on_error=_on_error(args), fault=args.inject_fault,
        )
        for bits in args.bits
        for stages in args.stages
    ]
    retry = None
    if not args.no_retry:
        try:
            retry = RetryPolicy(
                max_attempts=args.max_attempts,
                backoff_s=args.backoff_s,
                timeout_s=args.task_timeout,
            )
        except RetryError as exc:
            print(f"repro-gap: invalid retry policy: {exc}",
                  file=sys.stderr)
            return 2
    try:
        report = run_flow_sweep_report(
            option_sets, workers=args.workers, cache_dir=args.cache_dir,
            retry=retry, resume=args.resume_sweep, chaos=args.chaos,
        )
    except FlowError as exc:
        return _flow_error_exit(exc, args.json)
    quarantined = [r for r in report.results
                   if isinstance(r, TaskFailure)]
    if args.json:
        print(json.dumps(
            {
                "label": report.label,
                "points": report.tasks,
                "workers": report.workers,
                "ok": report.ok,
                "results": [r.to_dict() for r in report.results],
                "failures": [f.to_dict() for f in report.failures],
                "retries": report.retries,
                "replays": report.replays,
                "workers_lost": report.workers_lost,
            },
            indent=2, sort_keys=True,
        ))
    else:
        for index, res in enumerate(report.results):
            if isinstance(res, TaskFailure):
                print(f"[{index}] QUARANTINED: {res}")
            else:
                replayed = (" (replayed)" if index in report.replays
                            else "")
                print(f"[{index}] {res.summary()}{replayed}")
        print(f"\n{report.tasks - len(quarantined)}/{report.tasks} "
              f"points ok; {len(report.replays)} replayed from ledger, "
              f"{report.retries} retries, "
              f"{report.workers_lost} workers replaced")
        if quarantined:
            print("repro-gap: sweep completed with quarantined points",
                  file=sys.stderr)
    return 5 if quarantined else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Wall-time the hot paths: parallel Monte Carlo + a sized flow.

    The quick performance smoke test: one Monte Carlo sweep through
    ``repro.par.sweep`` at the requested worker count, one ASIC flow
    whose sizing stage runs on the ``ArrayTimingSession``, array-vs-object
    STA timings, then the stage-cache hit rate.  CI runs it with ``--workers 2`` so the
    process-pool path is exercised on every push.
    """
    import time

    from repro import obs
    from repro.flows import cache as stage_cache
    from repro.flows.registry import get_backend, run_backend_flow
    from repro.obs import ledger as run_ledger
    from repro.variation import NEW_PROCESS, sample_chip_speeds

    # --json reports histogram percentiles, which need the metrics
    # registry recording during the run.
    with _obs_recording(args.json):
        stage_cache.reset()
        if args.no_cache:
            stage_cache.set_enabled(False)
        try:
            start = time.perf_counter()
            dist = sample_chip_speeds(
                400.0, NEW_PROCESS, count=args.count, seed=args.seed,
                workers=args.workers,
            )
            mc_s = time.perf_counter() - start
            start = time.perf_counter()
            asic = get_backend("asic")
            result = run_backend_flow(asic, asic.options(
                bits=args.bits, sizing_moves=args.sizing_moves))
            flow_s = time.perf_counter() - start

            # Vectorized STA: batched vs sequential Monte Carlo, and
            # the reusable-compile analyzer vs per-call object
            # analyses, on the benchmark workload netlist.
            import numpy as np

            from repro.cells.builder import rich_asic_library
            from repro.flows.asic import WORKLOADS
            from repro.sta.array import clock_analyzer
            from repro.sta.clocking import asic_clock
            from repro.sta.engine import analyze as sta_analyze
            from repro.sta.sequential import register_boundaries
            from repro.sta.statistical import monte_carlo_min_period
            from repro.tech.process import CMOS250_ASIC

            lib = rich_asic_library(CMOS250_ASIC)
            netlist = register_boundaries(
                WORKLOADS["alu"](args.bits, lib), lib
            )
            bclk = asic_clock(2000.0)
            start = time.perf_counter()
            mc_batched = monte_carlo_min_period(
                netlist, lib, bclk, samples=args.mc_samples, seed=args.seed
            )
            mc_batched_s = time.perf_counter() - start
            start = time.perf_counter()
            mc_seq = monte_carlo_min_period(
                netlist, lib, bclk, samples=args.mc_samples, seed=args.seed,
                batched=False,
            )
            mc_seq_s = time.perf_counter() - start
            mc_equal = bool(np.array_equal(mc_batched, mc_seq))

            periods = [1500.0 + 23.0 * i for i in range(25)]
            run_array = clock_analyzer(netlist, lib)
            start = time.perf_counter()
            for period in periods:
                run_array(bclk.with_period(period))
            analyze_array_s = time.perf_counter() - start
            start = time.perf_counter()
            for period in periods:
                sta_analyze(netlist, lib, bclk.with_period(period))
            analyze_obj_s = time.perf_counter() - start
        finally:
            stage_cache.set_enabled(True)
        stage_cache.publish()
        payload: dict = {
            "montecarlo.count": args.count,
            "montecarlo.workers": args.workers,
            "montecarlo.s": round(mc_s, 6),
            "montecarlo.median_mhz": round(dist.median_mhz, 3),
            "flow.bits": args.bits,
            "flow.sizing_moves": args.sizing_moves,
            "flow.s": round(flow_s, 6),
            "cache.enabled": not args.no_cache,
            "sta.array.mc.samples": args.mc_samples,
            "sta.array.mc.batched_s": round(mc_batched_s, 6),
            "sta.array.mc.sequential_s": round(mc_seq_s, 6),
            "sta.array.mc.speedup": round(
                mc_seq_s / max(mc_batched_s, 1e-9), 2
            ),
            "sta.array.mc.bitwise_equal": mc_equal,
            "sta.array.analyze.batch": len(periods),
            "sta.array.analyze.array_s": round(analyze_array_s, 6),
            "sta.array.analyze.object_s": round(analyze_obj_s, 6),
            "sta.array.analyze.speedup": round(
                analyze_obj_s / max(analyze_array_s, 1e-9), 2
            ),
        }
        for rec in result.stage_records:
            payload[f"flow.stage.{rec.name}.s"] = round(rec.wall_s, 6)
            payload[f"flow.stage.{rec.name}.cached"] = rec.cache_hit
        stage_stats = stage_cache.stats()
        payload["cache.stage.hits"] = int(stage_stats["hits"])
        payload["cache.stage.misses"] = int(stage_stats["misses"])
        payload["cache.stage.hit_rate"] = round(stage_stats["hit_rate"], 4)
        if args.json:
            # Histogram summaries only, under a "hist." prefix: counters
            # and gauges (the stage-cache hit rate) are reported above.
            for key, value in obs.metrics_to_flat(obs.get_metrics()).items():
                if key.endswith((".count", ".sum", ".mean", ".p50", ".p95",
                                 ".max")):
                    payload[f"hist.{key}"] = value
        if run_ledger.enabled():
            from repro.flows.options import digest

            run_ledger.record(run_ledger.RunRecord(
                kind="bench",
                label=f"bench.w{args.workers}",
                fingerprint=digest({
                    "kind": "bench",
                    "count": args.count,
                    "seed": args.seed,
                    "bits": args.bits,
                    "sizing_moves": args.sizing_moves,
                    "workers": args.workers,
                    "no_cache": bool(args.no_cache),
                }),
                config={"count": args.count, "seed": args.seed,
                        "bits": args.bits,
                        "sizing_moves": args.sizing_moves,
                        "workers": args.workers,
                        "no_cache": bool(args.no_cache)},
                wall_s=round(mc_s + flow_s, 6),
                stages=[rec.to_dict() for rec in result.stage_records],
                metrics={k: v for k, v in payload.items()
                         if isinstance(v, (int, float))},
            ))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"monte carlo : {args.count} dies, workers={args.workers}: "
          f"{mc_s:.3f} s (median {dist.median_mhz:.1f} MHz)")
    print(f"asic flow   : bits={args.bits}, "
          f"sizing_moves={args.sizing_moves}: {flow_s:.3f} s")
    print(f"array STA   : {args.mc_samples}-sample MC batched "
          f"{mc_batched_s:.3f} s vs sequential {mc_seq_s:.3f} s "
          f"({mc_seq_s / max(mc_batched_s, 1e-9):.1f}x, "
          f"bitwise_equal={mc_equal}); "
          f"{len(periods)} analyses {analyze_array_s:.3f} s vs "
          f"{analyze_obj_s:.3f} s "
          f"({analyze_obj_s / max(analyze_array_s, 1e-9):.1f}x)")
    print(obs.render_waterfall(
        [rec.to_dict() for rec in result.stage_records]))
    print(f"stage cache : {'on' if not args.no_cache else 'OFF'}")
    print(f"  {'stage':<14s} hits={int(stage_stats['hits']):>8d} "
          f"misses={int(stage_stats['misses']):>8d} "
          f"hit_rate={stage_stats['hit_rate']:6.1%}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Render a dashboard from a live-event JSONL stream.

    One-shot by default: fold every event in the file and print the
    closing frame.  With ``--follow`` the file is re-polled and the
    frame repainted until interrupted (or ``--timeout`` elapses), which
    is how a second terminal watches a long run started with
    ``--events FILE``.
    """
    import os as _os
    import time as _time

    from repro.obs import live as obs_live
    from repro.obs.events import read_events

    if not args.follow and not _os.path.exists(args.events_file):
        print(f"repro-gap: no event stream at {args.events_file!r} "
              "(start a run with --events FILE first)", file=sys.stderr)
        return 1
    dashboard = obs_live.Dashboard(stream=sys.stdout,
                                   refresh_s=args.interval)
    deadline = (_time.monotonic() + args.timeout
                if args.timeout is not None else None)
    consumed = 0
    try:
        while True:
            if _os.path.exists(args.events_file):
                # Re-scan from the top and skip what was already fed:
                # events files are append-only, so position == identity.
                position = 0
                for event in read_events(args.events_file):
                    position += 1
                    if position > consumed:
                        dashboard.feed(event, paint=False)
                consumed = max(consumed, position)
            if not args.follow:
                break
            dashboard.paint()
            if deadline is not None and _time.monotonic() >= deadline:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    print(dashboard.final())
    if consumed == 0:
        print("repro-gap: stream contained no events", file=sys.stderr)
        return 1
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the persistent run ledger (list/show/diff/regress)."""
    from repro.obs import ledger as run_ledger
    from repro.obs import regress as run_regress
    from repro.obs import render

    ledger = run_ledger.get_ledger()
    if args.runs_cmd == "list":
        records = ledger.records(kind=args.kind)
        if not records:
            print(f"(no run records under {run_ledger.runs_dir()!r})")
            return 0
        if args.last:
            records = records[-args.last:]
        print(f"{'run id':<28s} {'kind':<10s} {'label':<20s} "
              f"{'wall s':>9s} {'stages':<22s} fingerprint")
        for rec in records:
            worker = " [worker]" if rec.worker else ""
            print(f"{rec.run_id:<28s} {rec.kind:<10s} "
                  f"{rec.label:<20.20s} {rec.wall_s:>9.3f} "
                  f"{rec.stage_summary():<22s} "
                  f"{rec.fingerprint[:12]}{worker}")
        return 0
    if args.runs_cmd == "show":
        try:
            record = ledger.load(args.run)
        except run_ledger.LedgerError as exc:
            print(f"repro-gap: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        else:
            print(render.render_run(record))
        return 0
    if args.runs_cmd == "diff":
        try:
            a = ledger.load(args.run_a)
            b = ledger.load(args.run_b)
        except run_ledger.LedgerError as exc:
            print(f"repro-gap: {exc}", file=sys.stderr)
            return 1
        print(render.diff_runs(a, b))
        return 0
    # regress
    records = ledger.records()
    current = None
    if args.run != "last":
        try:
            current = ledger.load(args.run)
        except run_ledger.LedgerError as exc:
            print(f"repro-gap: {exc}", file=sys.stderr)
            return 1
    thresholds = run_regress.Thresholds(
        wall_frac=args.wall_frac,
        wall_abs_s=args.wall_abs,
        baseline_n=args.baseline_n,
    )
    report = run_regress.regress(records, current=current,
                                 thresholds=thresholds)
    if report is None:
        which = args.run if args.run != "last" else "the newest run"
        print(f"no baseline for {which}: need at least one earlier "
              "record with the same kind and fingerprint "
              f"(ledger: {run_ledger.runs_dir()!r})")
        # Nothing to compare is not a regression; the gate stays green
        # so a fresh checkout's first CI run cannot fail on it.
        return 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.gate and not report.ok:
        return 3
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    """Check benchmark numbers against their PERF_BUDGETS.toml ceilings.

    A measurement over its ceiling is a fail finding; ``--gate`` turns
    that into exit 3 (same code as ``runs regress --gate`` -- both are
    performance gates).
    """
    from repro.obs import profile as obs_profile
    from repro.obs.trace import ObsError

    try:
        budgets = obs_profile.load_budgets(args.budgets)
    except OSError as exc:
        print(f"repro-gap: cannot read budget file: {exc}",
              file=sys.stderr)
        return 1
    except ObsError as exc:
        print(f"repro-gap: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.bench) as handle:
            bench = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"repro-gap: cannot read bench file {args.bench!r}: "
              f"{exc}", file=sys.stderr)
        return 1
    if not isinstance(bench, dict):
        print(f"repro-gap: bench file {args.bench!r} is not a JSON "
              "object", file=sys.stderr)
        return 1
    report = obs_profile.check_budgets(budgets, bench, label=args.bench)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"perf budgets: {args.budgets} vs {args.bench}")
        print(report.render())
    if args.gate and not report.ok:
        return 3
    return 0


def _fault_spec(value: str) -> str:
    """argparse type for ``--inject-fault``: STAGE or ``slow:STAGE``.

    Valid stage names are the union across every registered backend's
    graph, resolved lazily (the registry imports the flow modules) so
    plain ``--help`` stays cheap.
    """
    from repro.flows.registry import registered_stage_names

    stages = registered_stage_names()
    stage = value[len("slow:"):] if value.startswith("slow:") else value
    if stage not in stages:
        raise argparse.ArgumentTypeError(
            f"unknown stage {stage!r} (choose from "
            f"{', '.join(stages)}, optionally as slow:STAGE)"
        )
    return value


def _style_list(text: str) -> list[str]:
    """Argparse type: comma-separated registered style names."""
    from repro.flows.registry import backend_names

    names = backend_names()
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one style")
    for value in values:
        if value not in names:
            raise argparse.ArgumentTypeError(
                f"unknown style {value!r} (choose from {', '.join(names)})"
            )
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("styles must be unique")
    return values


def _add_flow_args(parser: argparse.ArgumentParser,
                   grid: bool = False) -> None:
    """Register the design-point flags shared by ``flow`` and ``sweep``.

    One definition keeps the two subcommands' shared knobs (and their
    help wording) from drifting apart.  With ``grid=True`` the bits and
    stages axes take comma-separated lists (the sweep grid); otherwise
    they are scalars.
    """
    parser.add_argument("--workload", default=None,
                        help="workload (default: the style's default "
                             "workload)")
    if grid:
        parser.add_argument("--bits", type=_int_list, default=[4, 8],
                            metavar="N,N,...",
                            help="comma-separated bit widths (grid axis)")
        parser.add_argument("--stages", type=_int_list, default=[1],
                            metavar="N,N,...",
                            help="comma-separated pipeline depths "
                                 "(grid axis)")
    else:
        parser.add_argument("--bits", type=int, default=8)
        parser.add_argument("--stages", type=int, default=1)
    parser.add_argument("--sizing-moves", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1,
                        help="placement / Monte Carlo RNG seed (a design-"
                             "point knob: part of every fingerprint)")
    parser.add_argument("--keep-going", action="store_true",
                        help="degrade through stage failures instead of "
                             "aborting; failures land in diagnostics")
    parser.add_argument("--inject-fault", metavar="STAGE", default=None,
                        type=_fault_spec,
                        help="deliberately fail the named stage; "
                             "slow:STAGE sleeps in it instead of failing "
                             "(regression-gate testing)")


def _positive_seconds(text: str) -> float:
    """Argparse type: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a positive, finite number of seconds, got {text!r}"
        )
    return value


#: Commands that run work the tracer sees (spans) and publish live
#: events; each also appends a record to the run ledger.
_RUNNERS = ("flow", "gap", "stats", "sweep", "variation", "bench",
            "selftest")
#: Commands that run flow stages (where --profile-mem prices memory).
_STAGED = ("flow", "gap", "stats", "sweep", "bench", "selftest")
#: Commands with --workers (pool workers beat and can stall).
_POOLED = ("sweep", "variation", "bench")

#: The output flags: (flag, add_argument keywords, the commands that
#: read it).  Each is accepted before or after the subcommand name, but
#: only for the commands listed.
_OUTPUT_FLAGS: tuple[tuple[str, dict, tuple[str, ...]], ...] = (
    ("--trace", dict(
        metavar="FILE",
        help="write a JSON-lines span trace of the command to FILE",
    ), _RUNNERS),
    ("--profile", dict(
        action="store_true",
        help="print a per-stage span/metric report after the command",
    ), _RUNNERS),
    ("--runs-dir", dict(
        metavar="DIR",
        help="run-ledger directory (default .repro_runs/ or "
             "$REPRO_RUNS_DIR)",
    ), _RUNNERS + ("runs",)),
    ("--no-ledger", dict(
        action="store_true",
        help="do not append a run record to the ledger",
    ), _RUNNERS),
    ("--events", dict(
        metavar="FILE",
        help="stream live telemetry events to FILE as JSON lines "
             "(watch with `repro-gap top FILE`)",
    ), _RUNNERS),
    ("--live", dict(
        action="store_true",
        help="render a live progress dashboard on stderr while the "
             "command runs",
    ), _RUNNERS),
    ("--trace-chrome", dict(
        metavar="FILE",
        help="write the span trace in Chrome Trace Event format "
             "(open in chrome://tracing or ui.perfetto.dev)",
    ), _RUNNERS),
    # variation runs no stages, but --flame's cProfile sidecar needs it.
    ("--profile-cpu", dict(
        action="store_true",
        help="attribute CPU seconds to every flow stage "
             "(time.process_time; lands in stage records and the "
             "ledger, including sweep workers)",
    ), _RUNNERS),
    ("--profile-mem", dict(
        nargs="?", const="sampled", choices=("sampled", "trace"),
        metavar="MODE",
        help="attribute peak memory (KiB) to every flow stage. "
             "MODE 'sampled' (the default) polls the process RSS from "
             "a background thread at negligible cost; 'trace' uses "
             "tracemalloc for exact traced-heap peaks but instruments "
             "every allocation (roughly 10x slower)",
    ), _STAGED),
    ("--flame", dict(
        metavar="FILE",
        help="write a collapsed-stack flame graph of the command's "
             "spans to FILE (Brendan Gregg format; open in speedscope)."
             "  With --profile-cpu a cProfile-derived FILE.cpu rides "
             "along",
    ), _RUNNERS),
    ("--heartbeat-s", dict(
        type=_positive_seconds, metavar="S",
        help="sweep worker heartbeat interval in seconds "
             "(default 1.0)",
    ), _POOLED),
    ("--stall-timeout", dict(
        type=_positive_seconds, metavar="S",
        help="abort a sweep with a stall diagnostic (exit 4) when a "
             "busy worker sends no event for S seconds (default: off)",
    ), _POOLED),
)


def _add_output_flags(parser: argparse.ArgumentParser,
                      command: str | None = None) -> None:
    """Declare the output flags ``command`` reads (all, when None).

    Defaults are ``SUPPRESS`` on every parser, so a value given before
    the subcommand is not clobbered by the subparser, and the namespace
    holds exactly the flags that were given.
    """
    for flag, kwargs, readers in _OUTPUT_FLAGS:
        if command is None or command in readers:
            parser.add_argument(flag, default=argparse.SUPPRESS, **kwargs)


def _check_output_flags(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> None:
    """Reject an output flag given before a command that does not read
    it (after the command, its subparser already rejects it)."""
    for flag, _kwargs, readers in _OUTPUT_FLAGS:
        dest = flag.lstrip("-").replace("-", "_")
        if hasattr(args, dest) and args.command not in readers:
            parser.error(f"argument {flag}: not read by {args.command!r} "
                         f"(read by {', '.join(readers)})")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gap",
        description=(
            "Reproduction of Chinnery & Keutzer, 'Closing the Gap Between "
            "ASIC and Custom' (DAC 2000)."
        ),
    )
    _add_output_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("survey", help="Section 2 chip survey").set_defaults(
        func=_cmd_survey)
    sub.add_parser("factors", help="Section 3 factor table").set_defaults(
        func=_cmd_factors)

    from repro.flows.registry import backend_names

    styles = backend_names()
    flow = sub.add_parser("flow", help="run one implementation flow")
    flow.add_argument("style", nargs="?", choices=styles,
                      help="flow to run (optional with --list-stages)")
    _add_flow_args(flow)
    flow.add_argument("--target-fo4", type=float, default=None,
                      help="custom flow: pick the stage count landing "
                           "the cycle near this FO4 depth")
    flow.add_argument("--fabric-utilization", type=float, default=0.6,
                      help="structured flow: target maximum fabric site "
                           "utilization when picking the master")
    flow.add_argument("--poor-library", action="store_true")
    flow.add_argument("--sloppy-placement", action="store_true")
    flow.add_argument("--speed-test", action="store_true")
    flow.add_argument("--list-stages", action="store_true",
                      help="print the flow's stage graph (inputs, "
                           "outputs, params) and exit")
    flow.add_argument("--checkpoint", metavar="FILE", default=None,
                      help="snapshot the flow context here after every "
                           "stage (resume source)")
    flow.add_argument("--resume", action="store_true",
                      help="restore completed stages from --checkpoint "
                           "instead of recomputing them")
    flow.add_argument("--from", dest="from_stage", metavar="STAGE",
                      default=None,
                      help="with --resume, re-run from this stage even "
                           "if the checkpoint covers it")
    flow.add_argument("--until", metavar="STAGE", default=None,
                      help="stop after this stage and print the stage "
                           "records (checkpointable partial run)")
    flow.add_argument("--no-array", action="store_true",
                      help="run STA stages on the object engine instead "
                           "of the vectorized array engine")
    flow.add_argument("--check-array", action="store_true",
                      help="cross-check every array STA result against "
                           "the object engine (slow)")
    flow.add_argument("--no-cache", action="store_true",
                      help="disable the stage fingerprint cache for "
                           "this run")
    flow.add_argument("--json", action="store_true",
                      help="print the flow result as JSON")
    flow.set_defaults(func=_cmd_flow)

    gap = sub.add_parser(
        "gap", help="run implementation styles, decompose the measured gap"
    )
    gap.add_argument("--styles", type=_style_list, default=None,
                     metavar="S1,S2,...",
                     help="comma-separated styles to compare "
                          f"(registered: {', '.join(styles)}; "
                          "default asic,custom)")
    gap.add_argument("--baseline", default="asic", choices=styles,
                     help="style every factor is quoted against "
                          "(default asic)")
    gap.add_argument("--bits", type=int, default=8)
    gap.add_argument("--target-fo4", type=float, default=14.0)
    gap.add_argument("--sizing-moves", type=int, default=20)
    gap.add_argument("--keep-going", action="store_true",
                     help="degrade through stage failures instead of "
                          "aborting")
    gap.add_argument("--json", action="store_true",
                     help="print the results and the factors as JSON")
    gap.set_defaults(func=_cmd_gap)

    stats = sub.add_parser(
        "stats", help="instrumented gap run: spans, counters, histograms"
    )
    stats.add_argument("--bits", type=int, default=8)
    stats.add_argument("--target-fo4", type=float, default=14.0)
    stats.add_argument("--sizing-moves", type=int, default=20)
    stats.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="also write the flat metrics dump to FILE")
    stats.add_argument("--top", type=int, default=None, metavar="N",
                       help="print the N hottest span labels (by self "
                            "time) from the last recorded run instead of "
                            "running anything")
    stats.add_argument("--self", dest="hotspots", action="store_true",
                       help="print the self-time hotspot rollup and "
                            "critical path of the last recorded run "
                            "instead of running anything")
    stats.set_defaults(func=_cmd_stats)

    selftest = sub.add_parser(
        "selftest",
        help="fault-injection health check (exit 0 = all guards catch)",
    )
    selftest.add_argument("--seed", type=int, default=0,
                          help="fault-injection RNG seed")
    selftest.add_argument(
        "--disable-guard", action="append", default=[],
        metavar="NAME", choices=["finite", "retry", "bisection"],
        help="switch a named guard off first (repeatable); the selftest "
             "must then FAIL, proving the guard is load-bearing",
    )
    selftest.add_argument("--json", action="store_true",
                          help="print the scenario reports as JSON")
    selftest.set_defaults(func=_cmd_selftest)

    sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant design-space sweep (exit 5 = quarantined "
             "points)",
    )
    sweep.add_argument("style", choices=styles, help="flow to sweep")
    _add_flow_args(sweep, grid=True)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--cache-dir", default=None,
                       help="shared on-disk stage cache directory")
    sweep.add_argument("--resume-sweep", action="store_true",
                       help="replay points already completed in the run "
                            "ledger instead of recomputing them")
    sweep.add_argument("--max-attempts", type=int, default=3,
                       help="tries per task before quarantine")
    sweep.add_argument("--backoff-s", type=float, default=0.05,
                       help="base retry backoff (deterministic "
                            "exponential)")
    sweep.add_argument("--task-timeout", type=float, default=None,
                       metavar="S",
                       help="per-task wall-clock budget; a hung worker "
                            "is killed and the task retried")
    sweep.add_argument("--no-retry", action="store_true",
                       help="fail fast: first failure aborts the sweep")
    sweep.add_argument("--chaos", type=_chaos_spec, default=None,
                       metavar="SPEC",
                       help="inject a process-level fault: kill-worker:N,"
                            " hang-task:N, crash-task:N, or "
                            "corrupt-result:N (N = task index)")
    sweep.add_argument("--json", action="store_true",
                       help="print the sweep report as JSON")
    sweep.set_defaults(func=_cmd_sweep)

    roadmap = sub.add_parser("roadmap", help="project the gap forward")
    roadmap.add_argument("--generations", type=int, default=4)
    roadmap.add_argument("--initial-gap", type=float, default=8.0)
    roadmap.set_defaults(func=_cmd_roadmap)

    library = sub.add_parser("library", help="summarise/export a library")
    library.add_argument(
        "--kind", choices=["rich", "poor", "custom", "domino"],
        default="rich",
    )
    library.add_argument("--technology", default="cmos250_asic")
    library.add_argument("--liberty", default=None,
                         help="write Liberty-style text to this path")
    library.set_defaults(func=_cmd_library)

    variation = sub.add_parser("variation", help="Section 8 die population")
    variation.add_argument("--nominal", type=float, default=400.0)
    variation.add_argument("--process", choices=["new", "mature"],
                           default="new")
    variation.add_argument("--count", type=int, default=20000)
    variation.add_argument("--seed", type=int, default=1)
    variation.add_argument("--workers", type=int, default=1,
                           help="sweep worker processes (deterministic "
                                "for any value)")
    variation.set_defaults(func=_cmd_variation)

    bench = sub.add_parser(
        "bench",
        help="wall-time the hot paths (sweep runner + array STA)",
    )
    bench.add_argument("--workers", type=int, default=1,
                       help="Monte Carlo sweep worker processes")
    bench.add_argument("--count", type=int, default=30000,
                       help="Monte Carlo dies to sample")
    bench.add_argument("--seed", type=int, default=17)
    bench.add_argument("--bits", type=int, default=8)
    bench.add_argument("--sizing-moves", type=int, default=20)
    bench.add_argument("--mc-samples", type=int, default=2000,
                       help="netlist Monte Carlo samples for the "
                            "batched-vs-sequential STA comparison")
    bench.add_argument("--no-cache", action="store_true",
                       help="disable the stage cache for this run")
    bench.add_argument("--json", action="store_true",
                       help="print wall times and cache stats as JSON")
    bench.set_defaults(func=_cmd_bench)

    top = sub.add_parser(
        "top", help="render a dashboard from a --events JSONL stream"
    )
    top.add_argument("events_file",
                     help="event stream written by --events FILE")
    top.add_argument("--follow", action="store_true",
                     help="keep polling the file and repainting until "
                          "interrupted (watch a run in progress)")
    top.add_argument("--interval", type=float, default=0.5, metavar="S",
                     help="poll/repaint interval in seconds "
                          "(default 0.5)")
    top.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="with --follow, stop after S seconds")
    top.set_defaults(func=_cmd_top)

    runs = sub.add_parser("runs", help="inspect the persistent run ledger")
    runs_sub = runs.add_subparsers(dest="runs_cmd", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list recorded runs, oldest first"
    )
    runs_list.add_argument("--kind", default=None,
                           help="only show runs of this kind "
                                "(flow, bench, sweep, variation, ...)")
    runs_list.add_argument("--last", type=int, default=None, metavar="N",
                           help="only show the newest N records")
    runs_show = runs_sub.add_parser(
        "show", help="render one run record (claims, waterfall, spans)"
    )
    runs_show.add_argument("run", nargs="?", default="last",
                           help="run id (unique prefix) or 'last'")
    runs_show.add_argument("--json", action="store_true",
                           help="print the raw record as JSON")
    runs_diff = runs_sub.add_parser(
        "diff", help="compare two run records stage by stage"
    )
    runs_diff.add_argument("run_a", help="baseline run id (prefix)")
    runs_diff.add_argument("run_b", nargs="?", default="last",
                           help="run id to compare (default 'last')")
    runs_regress = runs_sub.add_parser(
        "regress",
        help="check a run against the median of its matching baselines",
    )
    runs_regress.add_argument("run", nargs="?", default="last",
                              help="run id under test (default 'last')")
    runs_regress.add_argument("--gate", action="store_true",
                              help="exit nonzero when a fail-severity "
                                   "finding is present")
    runs_regress.add_argument("--wall-frac", type=float, default=0.5,
                              help="relative wall-time excess that "
                                   "flags a regression (default 0.5)")
    runs_regress.add_argument("--wall-abs", type=float, default=0.02,
                              help="absolute wall-time excess floor in "
                                   "seconds (default 0.02)")
    runs_regress.add_argument("--baseline-n", type=int, default=5,
                              help="matching runs feeding the median "
                                   "baseline (default 5)")
    runs_regress.add_argument("--json", action="store_true",
                              help="print the report as JSON")
    runs.set_defaults(func=_cmd_runs)

    budget = sub.add_parser(
        "budget",
        help="check benchmark numbers against PERF_BUDGETS.toml "
             "ceilings (exit 3 with --gate on a blown budget)",
    )
    budget.add_argument("--budgets", default="PERF_BUDGETS.toml",
                        metavar="FILE",
                        help="budget ceilings (default "
                             "PERF_BUDGETS.toml)")
    budget.add_argument("--bench", default="BENCH_paperbench.json",
                        metavar="FILE",
                        help="measured numbers (default "
                             "BENCH_paperbench.json)")
    budget.add_argument("--gate", action="store_true",
                        help="exit 3 when any measurement is over its "
                             "ceiling")
    budget.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    budget.set_defaults(func=_cmd_budget)
    for command, subparser in sub.choices.items():
        _add_output_flags(subparser, command)
    for subparser in runs_sub.choices.values():
        _add_output_flags(subparser, "runs")
    return parser


def _write_spans(write, path: str, what: str, wrote: str) -> bool:
    """Run one span export to ``path``; False means the write failed.

    ``wrote`` is the success line, formatted with ``count`` (what
    ``write`` returned) and ``path``.
    """
    try:
        count = write(path)
    except OSError as exc:
        print(f"repro-gap: cannot write {what}: {exc}", file=sys.stderr)
        return False
    print(wrote.format(count=count, path=path), file=sys.stderr)
    return True


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.obs import ledger as run_ledger

    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_flags(parser, args)
    trace_path = getattr(args, "trace", None)
    chrome_path = getattr(args, "trace_chrome", None)
    profile = getattr(args, "profile", False)
    profile_cpu = bool(getattr(args, "profile_cpu", False))
    profile_mem = getattr(args, "profile_mem", None)  # None, sampled, trace
    flame_path = getattr(args, "flame", None)
    events_path = getattr(args, "events", None)
    live_flag = bool(getattr(args, "live", False))
    heartbeat_s = getattr(args, "heartbeat_s", None)
    stall_timeout = getattr(args, "stall_timeout", None)
    run_ledger.configure(getattr(args, "runs_dir", None))
    run_ledger.set_enabled(not getattr(args, "no_ledger", False))
    if profile_cpu or profile_mem:
        from repro.obs import profile as obs_profile

        obs_profile.configure(cpu=profile_cpu,
                              mem=profile_mem if profile_mem else None)
    capture = bool(trace_path or chrome_path or profile or flame_path)
    streaming = bool(live_flag or events_path is not None
                     or heartbeat_s is not None
                     or stall_timeout is not None)
    dashboard = None
    stall_errors: tuple = ()
    if streaming:
        from repro.obs import live as obs_live
        from repro.par.sweep import SweepStallError

        stall_errors = (SweepStallError,)
        if heartbeat_s is not None or stall_timeout is not None:
            obs_live.configure_watch(
                heartbeat_s=(heartbeat_s if heartbeat_s is not None
                             else obs_live.DEFAULT_HEARTBEAT_S),
                stall_timeout_s=stall_timeout,
            )
        bus = obs_live.enable(jsonl=events_path)
        if live_flag:
            dashboard = obs_live.Dashboard()
            bus.add_callback(dashboard)
    try:
        if capture:
            from repro import obs

            obs.enable()
        cpu_profiler = None
        if flame_path and profile_cpu:
            import cProfile

            cpu_profiler = cProfile.Profile()
        try:
            if cpu_profiler is not None:
                cpu_profiler.enable()
            code = args.func(args)
        except stall_errors as exc:
            # A worker went silent past --stall-timeout: report the
            # structured diagnostic instead of hanging (exit 4).
            print(f"repro-gap: {exc}", file=sys.stderr)
            for report in getattr(exc, "reports", []):
                print(f"repro-gap:   {report.get('source', '?')}: "
                      f"silent {report.get('silent_s', 0.0):.2f} s "
                      f"(task {report.get('task', '?')!r}, last event "
                      f"{report.get('last_kind', '?')!r})",
                      file=sys.stderr)
            return 4
        finally:
            if cpu_profiler is not None:
                cpu_profiler.disable()
            if capture:
                from repro import obs

                obs.disable()
        if capture:
            from repro import obs
            from repro.obs import profile as obs_profile

            tracer = obs.get_tracer()
            exports = [
                (trace_path, "trace", "wrote {count} spans to {path}",
                 lambda path: obs.write_trace(tracer, path)),
                (chrome_path, "chrome trace",
                 "wrote {count} spans to {path} (chrome://tracing)",
                 lambda path: obs.write_chrome_trace(tracer, path)),
                (flame_path, "flame graph",
                 "wrote {count} flame stacks to {path} "
                 "(collapsed; open in speedscope)",
                 lambda path: obs_profile.write_collapsed(
                     obs_profile.spans_to_collapsed(tracer.finished()),
                     path)),
                (flame_path + ".cpu" if cpu_profiler else None,
                 "CPU flame graph",
                 "wrote {count} CPU flame stacks to {path} (cProfile)",
                 lambda path: obs_profile.write_collapsed(
                     obs_profile.cprofile_to_collapsed(cpu_profiler),
                     path)),
            ]
            for path, what, wrote, write in exports:
                if path and not _write_spans(write, path, what, wrote):
                    return 1
            if profile:
                print()
                print(obs.render_report())
        return code
    finally:
        if streaming:
            from repro.obs import live as obs_live

            if dashboard is not None:
                try:
                    dashboard.stream.write(dashboard.final() + "\n")
                    dashboard.stream.flush()
                except OSError:
                    pass
            sink = obs_live.sink_path()
            if sink:
                print(f"wrote live events to {sink}", file=sys.stderr)
            obs_live.disable()
        if profile_cpu or profile_mem:
            from repro.obs import profile as obs_profile

            obs_profile.reset_state()
        run_ledger.set_enabled(False)
        run_ledger.configure(None)


def _entry() -> int:
    """Console-script wrapper: exit quietly when stdout's pipe closes.

    ``repro-gap top events.jsonl | head`` closes our stdout mid-print;
    that is normal pipeline behaviour, not an error worth a traceback.
    """
    try:
        return main()
    except BrokenPipeError:
        # Detach stdout so the interpreter's shutdown flush does not
        # raise a second BrokenPipeError after we have handled this one.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(_entry())
