"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout.  It measures set-up in fresh
interpreters, runs the workload in one worker process (``worker.py``)
and prints the result as the last line of stdout::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Every child runs with
``PYTHONHASHSEED`` pinned, because the annealers iterate sets and dicts
and would otherwise do different work in every process.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
HASH_SEED = "0"
#: Fresh interpreters set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Hard wall-clock limit of the whole run (a run must end within 180 s).
DEADLINE_S = 170.0
#: ``-X importtime`` rows rolled up into ``setup.import.<pkg>.s``.
IMPORT_PACKAGES = ("repro.flows", "repro.obs", "repro.core", "networkx",
                   "numpy")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = HASH_SEED
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[knob] = "1"
    env.pop("REPRO_RUNS_DIR", None)
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of each package's ``-X importtime`` row."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        try:
            _, cumulative, name = line[len("import time:"):].split("|")
            found[name.strip()] = int(cumulative) / 1e6
        except ValueError:
            continue  # the header row
    return {pkg: found.get(pkg, 0.0) for pkg in IMPORT_PACKAGES}


class Child:
    """One worker process; set-up is timed from spawn to ``READY``."""

    def __init__(self, args: argparse.Namespace, root: str, *,
                 setup_only: bool, importtime: bool) -> None:
        command = [sys.executable]
        if importtime:
            command += ["-X", "importtime"]
        command += [WORKER, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if setup_only:
            command.append("--setup-only")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=child_env(root), text=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if importtime else None,
        )
        self.setup_s: float | None = None

    def finish(self, deadline: float) -> tuple[list[str], str]:
        """Wait for exit; returns stdout lines and captured stderr."""
        try:
            out, err = self.proc.communicate(
                timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit(f"perfbench: worker exceeded the "
                             f"{DEADLINE_S:.0f} s limit")
        if self.proc.returncode != 0:
            raise SystemExit(f"perfbench: worker exited with "
                             f"{self.proc.returncode}")
        return out.splitlines(), err or ""

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit("perfbench: worker failed during set-up")
        self.setup_s = time.perf_counter() - self.started


def end_to_end(raw: dict, setups: list[tuple[float, float]],
               scaled: bool) -> dict[str, float]:
    """The end-to-end metrics, in reference-host time if ``scaled``."""
    units = raw["units"]
    prefix = "scaled_" if scaled else ""
    ops = sum(u["ops"] for u in units)
    return {
        "setup_s": statistics.median(
            s * (k if scaled else 1.0) for s, k in setups),
        "ops_per_s": ops / sum(u[prefix + "wall_s"] for u in units),
        "op_p50_s": worker.op_median(units, prefix + "wall_s"),
        "cpu_s_per_op": sum(u[prefix + "cpu_s"] for u in units) / ops,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def measure(args: argparse.Namespace, root: str) -> tuple[dict, dict]:
    """Run the set-up probes and the worker; returns (raw, metrics)."""
    deadline = time.perf_counter() + DEADLINE_S
    setups: list[tuple[float, float]] = []  # (setup_s, scale)
    imports: list[dict] = []
    speed = calibrate.measure()
    for _ in range(SETUP_SAMPLES):
        probe = Child(args, root, setup_only=True, importtime=bool(args.trace))
        if args.trace:
            # -X importtime writes to stderr; read it all at exit.
            _, err = probe.finish(deadline)
            imports.append(import_times(err))
            continue
        probe.wait_ready()
        probe.finish(deadline)
        speed_after = calibrate.measure()
        setups.append((probe.setup_s, calibrate.scale(speed, speed_after)))
        speed = speed_after
    child = Child(args, root, setup_only=False, importtime=False)
    child.wait_ready()
    lines, _ = child.finish(deadline)
    raw = json.loads(lines[-1])
    if not raw["units"]:
        raise SystemExit("perfbench: no unit completed")

    if not args.trace:
        raw["unscaled"] = end_to_end(raw, setups, scaled=False)
        return raw, end_to_end(raw, setups, scaled=True)
    metrics = dict(raw["layers"])
    for pkg in IMPORT_PACKAGES:
        metrics[f"setup.import.{pkg}.s"] = statistics.median(
            row[pkg] for row in imports)
    return raw, metrics


def load_units() -> dict[str, str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(worker.workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from a repository checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    units = load_units()
    raw, metrics = measure(args, root)
    for problem in raw["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "context": raw["context"], "workload": args.workload,
        "seed": args.seed, "pinned_reference": raw["pinned_reference"],
        "unit_scales": [u["scaled_wall_s"] / u["wall_s"]
                        for u in raw["units"]],
        "unscaled": raw.get("unscaled"),
    }))
    print(json.dumps({
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
