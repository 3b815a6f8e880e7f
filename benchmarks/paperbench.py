"""Shared reporting helpers for the paper-reproduction benchmarks.

Every benchmark prints a table of (claim, paper value, measured value)
rows through :func:`report`, so ``pytest benchmarks/ --benchmark-only -s``
regenerates the paper's quantitative statements side by side with this
reproduction's measurements.

A run also *accumulates*: every reported row and every :func:`run_once`
wall time lands in a module-level collector, and :func:`finalize`
(registered atexit, so a plain pytest invocation triggers it) writes
``BENCH_paperbench.json`` -- a flat scalar dict of per-benchmark claim
pass/fail counts and wall times, plus totals over all of them.  That
file is the benchmark trajectory the observability layer's metric dumps
share a shape with.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import time
from dataclasses import dataclass

#: Default output artifact (written to the pytest working directory).
BENCH_JSON = "BENCH_paperbench.json"

#: Accumulated state of the current benchmark run.
_COLLECTED: dict = {"rows": [], "wall_s": {}, "values": {}, "claims": {}}


@dataclass(frozen=True)
class Row:
    """One claim-vs-measurement row.

    Attributes:
        claim: short description of the paper's statement.
        paper: the paper's number, as text (may be a range).
        measured: this reproduction's number, as text.
        ok: whether the measured value lands in (or adjacent to) the
            paper's band.
        value: the measured value as a number (None when the row was
            built by hand without one).
        lo: lower edge of the tolerance band (None = unknown).
        hi: upper edge of the tolerance band (None = unknown).
        host: the value is derived from wall times, so it changes with
            the host and from run to run (see :data:`HOST_TAG`).
    """

    claim: str
    paper: str
    measured: str
    ok: bool
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    host: bool = False


#: Suffix of the band tag of a host-dependent row: a diff of two runs'
#: claim rows drops them with ``grep -v '/host$'``.
HOST_TAG = "/host"


def row(claim: str, paper: str, value: float, lo: float, hi: float,
        fmt: str = "{:.2f}x", host: bool = False) -> Row:
    """Build a row whose measured value must land within [lo, hi].

    ``host=True`` marks a value derived from wall times (a speedup, a
    throughput, an overhead factor), which moves with the host.
    """
    return Row(
        claim=claim,
        paper=paper,
        measured=fmt.format(value),
        ok=bool(lo <= value <= hi),
        value=float(value),
        lo=float(lo),
        hi=float(hi),
        host=host,
    )


def band_tag(entry: Row) -> str:
    """The band column of a row: ``in``/``OUT``, host rows tagged."""
    return ("in" if entry.ok else "OUT") + (HOST_TAG if entry.host else "")


def _benchmark_name(title: str) -> str:
    """Name the running benchmark: its pytest test name, else ``title``.

    Matches the ``bench.<name>.s`` wall key :func:`run_once` records.
    """
    current = os.environ.get("PYTEST_CURRENT_TEST")
    if not current:
        return title
    return current.rsplit(" (", 1)[0].rsplit("::", 1)[-1]


def report(title: str, rows: list[Row]) -> None:
    """Print a claim-vs-measured table (and collect it for finalize)."""
    _COLLECTED["rows"].extend(rows)
    counts = _COLLECTED["claims"].setdefault(_benchmark_name(title), [0, 0])
    counts[0] += len(rows)
    counts[1] += sum(1 for r in rows if r.ok)
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    print(f"{'claim':<44s} {'paper':>12s} {'measured':>10s} {'band':>6s}")
    for entry in rows:
        print(
            f"{entry.claim:<44.44s} {entry.paper:>12s} "
            f"{entry.measured:>10s} {band_tag(entry):>6s}"
        )


def run_once(benchmark, func):
    """Run a workload exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations, not microbenchmarks;
    one round records the wall time without re-running multi-second
    flows dozens of times.  The wall time is also collected under the
    benchmark's name for the ``BENCH_paperbench.json`` artifact.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(func, rounds=1, iterations=1)
    name = getattr(benchmark, "name", None) or getattr(
        func, "__name__", "anonymous"
    )
    _COLLECTED["wall_s"][name] = time.perf_counter() - start
    return result


def record_wall(name: str, seconds: float) -> None:
    """Collect a named wall time into the ``BENCH_*.json`` artifact.

    For benchmarks that measure several timed phases (e.g. a cold vs
    warm cache comparison) and want each phase in the artifact as its
    own ``bench.<name>.s`` entry.
    """
    _COLLECTED["wall_s"][name] = seconds


def record_value(name: str, value: float) -> None:
    """Collect a non-wall-time scalar (CPU seconds, peak KiB, counts).

    Lands as ``bench.<name>`` -- no ``.s`` suffix, and excluded from
    the ``wall_time_s`` total, which must stay a sum of wall clocks.
    """
    _COLLECTED["values"][name] = float(value)


def summary() -> dict:
    """Flat scalar dict of the run so far (the BENCH_*.json payload)."""
    flat: dict = {}
    for name, (total, ok) in _COLLECTED["claims"].items():
        flat[f"claims.{name}.total"] = total
        flat[f"claims.{name}.ok"] = ok
    for name in _COLLECTED["wall_s"]:
        flat[f"bench.{name}.s"] = round(_COLLECTED["wall_s"][name], 6)
    for name in _COLLECTED["values"]:
        flat[f"bench.{name}"] = round(_COLLECTED["values"][name], 6)
    return _with_totals(flat)


def _with_totals(flat: dict) -> dict:
    """Add claim totals and the summed per-test wall time."""
    total = sum(v for k, v in flat.items()
                if k.startswith("claims.") and k.endswith(".total"))
    ok = sum(v for k, v in flat.items()
             if k.startswith("claims.") and k.endswith(".ok"))
    flat.update({
        "claims_total": total,
        "claims_ok": ok,
        "claims_out": total - ok,
        # Only whole-test walls (``run_once``): ``record_wall`` phases
        # are timed inside them and would count twice.
        "wall_time_s": round(sum(
            v for k, v in flat.items()
            if k.startswith("bench.test_") and k.endswith(".s")
        ), 6),
    })
    return dict(sorted(flat.items()))


def _prior_entries(path: str) -> dict:
    """Per-benchmark entries already recorded in the artifact.

    A partial benchmark selection (``pytest benchmarks/bench_e8...``)
    should refine its own rows without deleting everyone else's; a
    corrupt or missing artifact contributes nothing.
    """
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(previous, dict):
        return {}
    return {
        key: value for key, value in previous.items()
        if key.startswith(("bench.", "claims."))
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def finalize(path: str = BENCH_JSON) -> dict | None:
    """Write the accumulated summary; returns it (None if nothing ran).

    The write is atomic (temp file + ``os.replace`` in the target
    directory), so a crash mid-dump or two concurrent runs can never
    leave a truncated artifact; and per-benchmark claim counts and wall
    times from a previous run are merged in rather than clobbered, with
    this run's entries winning any collision.  The totals
    (``claims_total``, ``claims_out``, ``wall_time_s``, ...) are then
    recomputed over the merged artifact.
    """
    if not _COLLECTED["rows"] and not _COLLECTED["wall_s"] \
            and not _COLLECTED["values"]:
        return None
    flat = _prior_entries(path)
    flat.update(summary())
    flat = _with_totals(flat)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(flat, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _record_run(flat)
    return flat


def _record_run(flat: dict) -> None:
    """Append a ``kind="paperbench"`` record to the run ledger.

    Recording happens when the ledger is already enabled in-process or
    when ``REPRO_RUNS_DIR`` is set (the CI spelling: export the env var,
    run pytest twice, then ``repro-gap runs regress --gate``).  Claims
    land with their tolerance bands, so the regression engine can flag
    band escapes and in-band drift across benchmark runs.
    """
    try:
        from repro.flows.options import digest
        from repro.obs import ledger as run_ledger
    except ImportError:
        return
    if not run_ledger.enabled():
        if not os.environ.get(run_ledger.ENV_DIR):
            return
        run_ledger.set_enabled(True)
    rows = _COLLECTED["rows"]
    claims = {
        r.claim: {"value": r.value, "lo": r.lo, "hi": r.hi, "ok": r.ok}
        for r in rows if r.value is not None
    }
    run_ledger.record(run_ledger.RunRecord(
        kind="paperbench",
        label=f"paperbench.{len(rows)}claims",
        fingerprint=digest({
            "kind": "paperbench",
            "benchmarks": sorted(_COLLECTED["wall_s"]),
            "claims": sorted(r.claim for r in rows),
        }),
        wall_s=float(flat.get("wall_time_s", 0.0)),
        metrics={k: v for k, v in flat.items()
                 if isinstance(v, (int, float))},
        claims=claims,
    ))


atexit.register(finalize)
