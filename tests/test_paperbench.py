"""``benchmarks/paperbench.py``: the BENCH artifact survives partial runs.

Two partial benchmark selections run one after the other, each in its
own pytest process like a developer re-running one benchmark file.  The
artifact must then hold both selections' claims, and its totals must
describe the merged artifact rather than the last run alone.  The wall
total sums whole-test walls only, never the phases timed inside them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

ALPHA = """
from paperbench import record_wall, report, row

def test_alpha():
    # What run_once records for this test, plus a phase timed inside it.
    record_wall("test_alpha", 1.5)
    record_wall("alpha.phase", 0.75)
    report("A  alpha", [row("in band", "1x", 1.0, 0.5, 2.0),
                        row("out of band", "1x", 9.0, 0.5, 2.0)])
"""

BETA = """
from paperbench import record_wall, report, row

def test_beta():
    record_wall("test_beta", 2.5)
    report("B  beta", [row("first", "1x", 1.0, 0.5, 2.0)])
    report("B  beta, more", [row("second", "1x", 1.0, 0.5, 2.0)])
"""


def run_selection(workdir: Path, name: str, source: str) -> dict:
    (workdir / name).write_text(textwrap.dedent(source))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(BENCH_DIR)
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "no:benchmark", name],
        cwd=workdir, env=env, check=True, capture_output=True,
    )
    return json.loads((workdir / "BENCH_paperbench.json").read_text())


def test_partial_runs_merge_claims_and_totals(tmp_path):
    first = run_selection(tmp_path, "bench_alpha.py", ALPHA)
    assert first["claims_total"] == 2
    assert first["claims_out"] == 1

    # The phase lands in the artifact but not in the total.
    assert first["bench.alpha.phase.s"] == 0.75
    assert first["wall_time_s"] == 1.5

    merged = run_selection(tmp_path, "bench_beta.py", BETA)
    assert merged["claims.test_alpha.total"] == 2
    assert merged["claims.test_alpha.ok"] == 1
    assert merged["claims.test_beta.total"] == 2
    assert merged["claims.test_beta.ok"] == 2
    assert merged["claims_total"] == 4
    assert merged["claims_ok"] == 3
    assert merged["claims_out"] == 1
    assert merged["wall_time_s"] == 4.0

    # Re-running a selection replaces its own counts, never adds to them.
    again = run_selection(tmp_path, "bench_alpha.py", ALPHA)
    assert again["claims_total"] == 4
    assert again["claims.test_beta.total"] == 2
    assert again["wall_time_s"] == 4.0


def test_host_rows_carry_a_band_tag_a_diff_can_drop(tmp_path):
    script = textwrap.dedent("""
        from paperbench import report, row
        report("H  host", [
            row("model ratio", "1x", 1.0, 0.5, 2.0),
            row("wall speedup", ">= 2x", 3.0, 2.0, 1e3, host=True),
            row("wall overhead", "< 2x", 5.0, 0.0, 2.0, host=True),
        ])
    """)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(BENCH_DIR)
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    rows = {line.split()[0] + " " + line.split()[1]: line.split()[-1]
            for line in out if line.startswith(("model", "wall"))}
    assert rows == {"model ratio": "in", "wall speedup": "in/host",
                    "wall overhead": "OUT/host"}
    kept = [line for line in out if not line.endswith("/host")]
    assert any(line.startswith("model ratio") for line in kept)
    assert not any(line.startswith("wall") for line in kept)


def test_numpy_valued_row_lands_in_the_run_ledger(tmp_path):
    # A measured value is usually a numpy scalar; the ledger record's
    # claims are JSON, so the row's band verdict must be a plain bool.
    script = textwrap.dedent("""
        import numpy as np
        from paperbench import report, row
        entry = row("numpy ratio", "1x", np.float64(1.5), 1.0, 2.0)
        assert type(entry.ok) is bool
        report("N  numpy", [entry])
    """)
    runs = tmp_path / "runs"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), str(SRC_DIR)])
    env["REPRO_RUNS_DIR"] = str(runs)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
        capture_output=True, text=True,
    )
    assert "Traceback" not in done.stderr
    from repro.obs.ledger import RunLedger

    records = RunLedger(str(runs)).records(kind="paperbench")
    assert len(records) == 1
    claim = records[0].claims["numpy ratio"]
    assert claim == {"value": 1.5, "lo": 1.0, "hi": 2.0, "ok": True}
