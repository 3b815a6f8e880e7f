"""Cold start: what a one-shot ``repro-gap`` command pays before any work.

Every package ``__init__`` resolves its exports lazily, so ``import
repro.cli`` loads the CLI module and nothing it has not yet used.  The
row ``bench.cold.import_cli_s`` is the best of ``SAMPLES`` fresh
``python -c "import repro.cli"`` processes, wall clock from spawn to
exit (interpreter start-up included).
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


def _best_import_s() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                       check=True)
        best = min(best, time.perf_counter() - start)
    return best


def test_cold_import_cli(benchmark):
    seconds = run_once(benchmark, _best_import_s)
    record_value("cold.import_cli_s", round(seconds, 4))
    print()
    print(f"import repro.cli: {seconds:.3f} s (best of {SAMPLES} fresh "
          f"interpreters)")
