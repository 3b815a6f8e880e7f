"""``benchmarks/paperbench.py``: the BENCH artifact survives partial runs.

Two partial benchmark selections run one after the other, each in its
own pytest process like a developer re-running one benchmark file.  The
artifact must then hold both selections' claims, and its totals must
describe the merged artifact rather than the last run alone.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

ALPHA = """
from paperbench import record_wall, report, row

def test_alpha():
    record_wall("alpha", 1.5)
    report("A  alpha", [row("in band", "1x", 1.0, 0.5, 2.0),
                        row("out of band", "1x", 9.0, 0.5, 2.0)])
"""

BETA = """
from paperbench import record_wall, report, row

def test_beta():
    record_wall("beta", 2.5)
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
