"""Cold start: what a one-shot process pays before any work.

Every package ``__init__`` resolves its exports lazily, so ``import
repro.cli`` loads the CLI module and nothing it has not yet used, and a
netlist-only process (build a named workload and time it, as the Monte
Carlo does) loads no flow machinery.  Each row is the best of
``SAMPLES`` fresh ``python -c`` processes, wall clock from spawn to
exit (interpreter start-up included):

* ``bench.cold.import_cli_s``: ``import repro.cli``;
* ``bench.cold.netlist_mc_s``: import the workload table and
  :mod:`repro.sta.statistical`, then build the 8-bit Wallace multiplier.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from paperbench import record_value, run_once

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
SAMPLES = 5


NETLIST_MC = """
from repro.cells.builder import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.sta import statistical
from repro.tech.process import CMOS250_ASIC
WORKLOADS["multiplier_wallace"](8, rich_asic_library(CMOS250_ASIC))
"""


def _best_of(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        best = min(best, time.perf_counter() - start)
    return best


def test_cold_import_cli(benchmark):
    seconds = run_once(benchmark, lambda: _best_of("import repro.cli"))
    record_value("cold.import_cli_s", round(seconds, 4))
    print()
    print(f"import repro.cli: {seconds:.3f} s (best of {SAMPLES} fresh "
          f"interpreters)")


def test_cold_netlist_mc(benchmark):
    seconds = run_once(benchmark, lambda: _best_of(NETLIST_MC))
    record_value("cold.netlist_mc_s", round(seconds, 4))
    print()
    print(f"netlist-only MC set-up: {seconds:.3f} s (best of {SAMPLES} "
          f"fresh interpreters)")
