"""One benchmark process: set up a workload, run its ops, check them.

``run.py`` starts this script in a fresh interpreter with
``PYTHONHASHSEED`` pinned and ``src`` on the path.  The protocol is two
stdout lines: ``READY`` once set-up is done (``run.py`` times set-up up
to it), then one JSON object with the raw measurements.

The loop is closed with one client: units run back to back until
``--seconds`` have passed.  Every op's outputs are compared with the
references pinned in ``refs.json`` for its seed; a seed without pinned
references compares every op with the run's first op and then repeats
that unit untimed with ``check_array=True`` (see ``workloads.py``).

With ``--trace 1`` untraced and traced units alternate, so host-speed
drift hits both alike: the layer metrics come from the traced units,
and the tracing overhead is the difference of the two op medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import calibrate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")
#: Relative/absolute tolerance of float outputs (the repo's own
#: array-vs-object contract is 1e-9 ps; in practice they are equal).
TOLERANCE = 1e-9


def outputs_match(got, want) -> bool:
    """Structural equality with a 1e-9 tolerance on floats."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(outputs_match(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(outputs_match(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and not isinstance(want, bool):
        return isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    return got == want


def op_outputs(workload, outputs: dict) -> list:
    """Split a unit's outputs into one entry per op."""
    if workload.ops_per_unit == 1:
        return [outputs]
    return outputs["points"]


def pinned_reference(name: str, seed: int) -> dict | None:
    with open(REFS_PATH, encoding="utf-8") as handle:
        refs = json.load(handle)
    return refs.get(name, {}).get(str(seed))


def isolate() -> None:
    """Refuse to measure with any recorder of the program switched on."""
    from repro import obs
    from repro.obs import ledger, live, profile

    ledger.set_enabled(False)
    if obs.enabled() or live.enabled() or profile.enabled():
        raise SystemExit("perfbench: span capture, live bus or profiling "
                         "is on; the benchmark measures them off")


def host_context() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def timed_unit(workload, clock: layers.FlowClock, wall_s: float,
               cpu_s: float, speed: float | None) -> dict:
    """One unit's wall and CPU time, raw and scaled to the reference host.

    ``speed`` is the calibration point taken before the unit (None when
    not calibrating).  Each flow is scaled by the points on either side of
    it; the rest of the unit by the points around the whole unit.
    """
    wall_s -= clock.calibration_s
    cpu_s -= clock.calibration_cpu_s
    scaled_wall, after = wall_s, None
    if speed is not None:
        after = calibrate.measure()
        points = [point for _, point in clock.flows] + [after]
        flow_walls = [wall for wall, _ in clock.flows]
        scaled_wall = sum(
            wall * calibrate.scale(points[i], points[i + 1])
            for i, wall in enumerate(flow_walls)
        ) + (wall_s - sum(flow_walls)) * calibrate.scale(speed, after)
    return {
        "ops": workload.ops_per_unit,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "scaled_wall_s": scaled_wall,
        "scaled_cpu_s": cpu_s * scaled_wall / wall_s,
        "speed_after": after,
    }


def op_median(units: list[dict], key: str = "wall_s") -> float:
    """Median over units of the mean op wall in the unit.

    For ``gap3`` and ``mc_population`` a unit is one op, so this is the
    median op wall.  A ``sizing_sweep`` unit holds 8 unlike ops, half of
    them cache hits: a pooled median would fall between the two clusters
    and follow single outliers, so the sweep's mean point wall stands in
    for its op wall.
    """
    return statistics.median(u[key] / u["ops"] for u in units)


def run(args: argparse.Namespace) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    isolate()
    print("READY", flush=True)
    if args.setup_only:
        return {}

    from repro.flows import cache as stage_cache

    reference = pinned_reference(args.workload, args.seed)
    pinned = reference is not None
    tracer = layers.Tracer() if args.trace else None
    # Traced units are compared with untraced ones in the same run, so
    # only untraced runs need the host-speed scale.
    clock = layers.FlowClock(None if tracer else calibrate.measure)
    units: list[dict] = []       # untraced units that completed
    traced: list[dict] = []      # traced units that completed
    unit_counts: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0

    started = time.perf_counter()
    speed = None if tracer else calibrate.measure()
    unit = 0
    while True:
        tracing = tracer is not None and unit % 2 == 1
        clock.reset()
        clock.patch.install()
        if tracing:
            counts_before = tracer.counts()
            tracer.begin_unit()
        unit_started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            outputs, error = workload.run_unit("timed"), None
        except Exception as exc:  # an op that raises counts as failed
            outputs, error = None, exc
        unit_wall = time.perf_counter() - unit_started
        unit_cpu = time.process_time() - cpu_started
        if tracing:
            tracer.end_unit(stage_cache.stats())
            counts = tracer.counts()
            unit_counts.append(
                {k: counts[k] - counts_before[k] for k in counts})
        clock.patch.uninstall()
        record = timed_unit(workload, clock, unit_wall, unit_cpu, speed)
        speed = record.pop("speed_after")
        attempted += workload.ops_per_unit
        if error is not None:
            failed += workload.ops_per_unit
            problems.append(f"unit {unit} raised {error!r}")
        else:
            (traced if tracing else units).append(record)
            if reference is None:
                reference = outputs
            for index, (got, want) in enumerate(zip(
                    op_outputs(workload, outputs),
                    op_outputs(workload, reference))):
                if not outputs_match(got, want):
                    failed += 1
                    problems.append(f"unit {unit} op {index}: {got!r} "
                                    f"!= reference {want!r}")
        unit += 1
        enough_units = tracer is None or unit >= 4
        if enough_units and time.perf_counter() - started >= args.seconds:
            break

    if not pinned and reference is not None:
        # Untimed oracle cross-check of the run's reference unit.
        try:
            checked = workload.run_unit("check")
        except Exception as exc:
            checked = None
            problems.append(f"check_array rerun raised {exc!r}")
        if checked is None or not outputs_match(checked, reference):
            failed = attempted
            problems.append("first unit differs from its check_array rerun")

    result = {
        "attempted": attempted,
        "failed": failed,
        "units": units,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pinned_reference": pinned,
        "problems": problems,
        "context": host_context(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            sum(u["ops"] for u in traced))
        result["layers"]["trace.overhead_s"] = (
            op_median(traced) - op_median(units) if traced and units else 0.0
        )
        if any(c != unit_counts[0] for c in unit_counts[1:]):
            problems.append(f"traced units disagree on counts: "
                            f"{unit_counts}")
        if not tracer.restored() or not clock.patch.restored():
            problems.append("a layer wrapper was not restored")
        if not tracer.stage_walls_within_flow:
            problems.append("stage walls sum past their flow wall")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(
            os.path.join(out_dir,
                         f"spans-{args.workload}-seed{args.seed}.jsonl"),
            result["context"],
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
