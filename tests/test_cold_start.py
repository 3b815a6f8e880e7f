"""Cold start: an entry point loads only the modules it runs.

Each probe runs in a fresh interpreter (this test session has imported
everything long ago) and reports the modules it ended up with.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Everything a one-shot ``import repro.cli`` must leave unloaded.
FLOW_MACHINERY = {"networkx", "numpy", "repro.par.sweep", "repro.obs.live",
                  "repro.obs.regress", "repro.robust.faults"}

_GAP = """
from repro.core import analyze_multi_gap
from repro.flows import registry
backends = [registry.get_backend(s) for s in ("asic", "structured", "custom")]
ready = set(sys.modules)
results = [
    registry.run_backend_flow(b, b.gap_options(
        bits=4, sizing_moves=2, target_fo4=14.0, on_error="raise"))
    for b in backends
]
analyze_multi_gap(results, baseline="asic")
extra["loaded_by_run"] = sorted(
    m for m in set(sys.modules) - ready if m.startswith("repro"))
"""

#: Everything a netlist-only process (build a named workload, time it)
#: must leave unloaded: the flow engine and every stage's tools.
STAGE_MACHINERY = ("repro.flows.engine", "repro.flows.registry",
                   "repro.physical.", "repro.pipeline.", "repro.sizing.",
                   "repro.par.", "repro.robust.guards", "repro.variation.")

_NETLIST = """
from repro.cells.builder import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.tech.process import CMOS250_ASIC
WORKLOADS["multiplier_wallace"](8, rich_asic_library(CMOS250_ASIC))
"""

_ANALYZE = """
from repro.cells.builder import rich_asic_library
from repro.datapath.adders import ripple_carry_adder
from repro.sta.clocking import asic_clock
from repro.sta.engine import analyze
from repro.sta.sequential import register_boundaries
from repro.tech.process import CMOS250_ASIC
library = rich_asic_library(CMOS250_ASIC)
module = register_boundaries(ripple_carry_adder(4, library), library)
analyze(module, library, asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps))
"""

#: ``mc_population``'s set-up (perfbench's imports, then the recorder
#: imports of its ``isolate()``), then one small MC plus the corners.
_MC = """
import repro.cli
from repro.cells.builder import rich_asic_library
from repro.flows.asic import WORKLOADS
from repro.sta import statistical
from repro.sta.clocking import asic_clock
from repro.sta.sequential import register_boundaries
from repro.tech import corners
from repro.tech.process import CMOS250_ASIC
from repro import obs
from repro.obs import ledger, live, profile
library = rich_asic_library(CMOS250_ASIC)
module = register_boundaries(
    WORKLOADS["multiplier_wallace"](8, library), library)
clock = asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps)
ready = set(sys.modules)
statistical.monte_carlo_min_period(module, library, clock, samples=64,
                                   seed=1)
corners.evaluate_corners(module, library, clock)
extra["loaded_by_op"] = sorted(
    m for m in set(sys.modules) - ready if m.startswith("repro"))
"""

_EXPORTS = """
import importlib, pkgutil, types
import repro
if preload:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
packages = ["repro"] + [
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
]
for name in packages:
    package = importlib.import_module(name)
    exported = {}
    for attr in package.__all__:
        value = getattr(package, attr)
        exported[attr] = (value.__name__ if isinstance(value, types.ModuleType)
                          else type(value).__name__)
    assert set(package.__all__) <= set(dir(package)), name
    extra[name] = exported
"""


def probe(code: str, tmp_path: Path, **names) -> tuple[set[str], dict]:
    """Run ``code`` in a fresh interpreter; (its modules, its ``extra``)."""
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_RUNS_DIR=str(tmp_path / "runs"))
    script = "\n".join([
        "import json, sys",
        "extra = {}",
        *(f"{key} = {value!r}" for key, value in names.items()),
        code,
        "print()",
        "print(json.dumps([sorted(sys.modules), extra]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules, extra = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), extra


def test_import_cli_loads_no_flow_machinery(tmp_path):
    modules, _ = probe("import repro.cli", tmp_path)
    assert not FLOW_MACHINERY & modules


def test_help_loads_no_numpy(tmp_path):
    modules, _ = probe(
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass",
        tmp_path,
    )
    assert "repro.flows.registry" in modules  # --help lists the styles
    assert "numpy" not in modules


def test_three_style_gap_needs_no_networkx(tmp_path):
    modules, _ = probe(
        "from repro.cli import main\n"
        "main(['--no-ledger', 'gap', '--styles', 'asic,structured,custom',"
        " '--bits', '4', '--sizing-moves', '2'])",
        tmp_path,
    )
    assert "repro.flows.asic" in modules
    assert "networkx" not in modules


def test_backends_load_every_module_their_flows_run(tmp_path):
    # Layer tracing rebinds the functions of loaded modules only, so a
    # module first imported mid-flow would escape it.
    modules, extra = probe(_GAP, tmp_path)
    assert extra["loaded_by_run"] == []
    assert "networkx" not in modules


def _stage_machinery(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m.startswith(STAGE_MACHINERY))


def test_named_netlist_loads_no_flow_machinery(tmp_path):
    modules, _ = probe(_NETLIST, tmp_path)
    assert _stage_machinery(modules) == []


def test_timing_engine_loads_no_sizing_layer(tmp_path):
    # The engine reads the finite-guard switch, not the guard wrappers
    # (which are built on the sizer), at import and per analysis.
    modules, _ = probe(_ANALYZE, tmp_path)
    assert "repro.robust.guards" not in modules
    assert not [m for m in modules if m.startswith("repro.sizing")]


def test_monte_carlo_loads_nothing_after_set_up(tmp_path):
    # What an MC op runs loads with the module that runs it, so no
    # import cost moves from set-up into the first op.
    modules, extra = probe(_MC, tmp_path)
    assert extra["loaded_by_op"] == []
    assert _stage_machinery(modules) == []


def test_every_exported_name_resolves(tmp_path):
    # Loading every submodule first must not change what a package
    # exports: a submodule import binds its name on the package, which
    # would shadow a lazy export of the same name.
    _, fresh = probe(_EXPORTS, tmp_path, preload=False)
    _, preloaded = probe(_EXPORTS, tmp_path, preload=True)
    assert fresh == preloaded
    assert fresh["repro.par"]["memo"] == "repro.par.memo"
    assert fresh["repro.optimize"]["anneal"] == "function"
    assert fresh["repro.synth"]["optimize"] == "function"
