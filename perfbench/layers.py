"""Layer tracing from outside the program: wrap public functions.

The benchmark does not change ``src/``.  It prices each layer by
rebinding the layer's public functions and methods to timing wrappers
for the duration of a traced unit, then putting the originals back.  A
function imported by name (``from repro.physical.placement import
place``) lives on in every importer's globals, so :class:`Patch`
rebinds every ``repro.*`` module global that holds the target object,
not only the defining module's.

Spans are kept in memory (name, start, end, parent, unit) and written
out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable


class Patch:
    """Rebind one function or method everywhere it is bound.

    ``target`` is ``"module:attr"`` for a function or
    ``"module:Class.attr"`` for a method.  ``make(original)`` returns the
    replacement.
    """

    def __init__(self, target: str,
                 make: Callable[[Callable], Callable]) -> None:
        self.target = target
        self.make = make
        self._original: Any = None
        self._wrappers: list[Callable] = []
        self._undo: list[tuple[Any, str]] = []

    def _owner(self) -> tuple[Any, str, bool]:
        """(module or class holding the target, attribute, is a method)."""
        module_name, path = self.target.split(":")
        owner: Any = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        return owner, attr, bool(classes)

    def _bindings(self, value: Any) -> list[tuple[Any, str]]:
        """Every (owner, name) that holds ``value``."""
        owner, attr, method = self._owner()
        if method:
            return [(owner, attr)] if owner.__dict__[attr] is value else []
        return [
            (module, key)
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for key, held in list(getattr(module, "__dict__", {}).items())
            if held is value
        ]

    def install(self) -> None:
        owner, attr, _ = self._owner()
        self._original = getattr(owner, attr)
        wrapper = self.make(self._original)
        self._wrappers.append(wrapper)
        self._undo = self._bindings(self._original)
        for holder, key in self._undo:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key in self._undo:
            setattr(holder, key, self._original)
        self._undo = []

    def restored(self) -> bool:
        """No wrapper this patch made is still bound anywhere."""
        return not any(self._bindings(w) for w in self._wrappers)


class FlowClock:
    """Wall time of each flow run, with a calibration point before it.

    A ``sizing_sweep`` op is one ``run_backend_flow`` call, so timing that
    call times the op without reaching into the sweep runner.  Taking a
    host-speed point before every flow (``calibrate``) keeps the scale
    close to the work it scales; the time spent calibrating is kept apart
    so the caller can take it out of the unit's wall and CPU time.
    """

    def __init__(self, calibrate: Callable[[], float] | None) -> None:
        self.calibrate = calibrate
        self.patch = Patch("repro.flows.registry:run_backend_flow",
                           self._wrap)
        self.reset()

    def reset(self) -> None:
        #: (flow wall, calibration point taken just before it or None)
        self.flows: list[tuple[float, float | None]] = []
        self.calibration_s = 0.0
        self.calibration_cpu_s = 0.0

    def _wrap(self, original: Callable) -> Callable:
        def timed(*args, **kwargs):
            point = None
            if self.calibrate is not None:
                started, cpu_started = time.perf_counter(), time.process_time()
                point = self.calibrate()
                self.calibration_s += time.perf_counter() - started
                self.calibration_cpu_s += time.process_time() - cpu_started
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.flows.append((time.perf_counter() - started, point))
        return timed


#: Layer span name -> wrapped target.  Names follow the repo's modules.
SPAN_TARGETS = {
    "flows.engine.run_backend_flow": "repro.flows.registry:run_backend_flow",
    "flows.sweep": "repro.flows.sweep:run_flow_sweep_report",
    "flows.cache.get": "repro.flows.cache:StageCache.get",
    "flows.cache.put": "repro.flows.cache:StageCache.put",
    "physical.place": "repro.physical.placement:place",
    "physical.assign_slots": "repro.physical.fabric:assign_slots",
    "optimize.anneal": "repro.optimize.anneal:anneal",
    "par.session.trial": "repro.par.session:ArrayTimingSession.trial",
    "par.session.commit": "repro.par.session:ArrayTimingSession.commit",
    "par.session.trial.object": "repro.par.session:TimingSession.trial",
    "par.session.commit.object": "repro.par.session:TimingSession.commit",
    "sta.array.compile": "repro.sta.array:CompiledTiming.__init__",
    "sta.array.propagate": "repro.sta.array:CompiledTiming.propagate",
    "sta.engine.analyze": "repro.sta.engine:analyze",
    "sta.mc": "repro.sta.statistical:monte_carlo_min_period",
    "core.gap": "repro.core.gap:analyze_multi_gap",
}

STYLES = ("asic", "structured", "custom")
STAGES = ("map", "place", "cts", "size", "sta", "quote")

#: Counts that must repeat exactly between traced units of one seed.
DETERMINISTIC = (
    "physical.place.calls", "physical.assign_slots.calls",
    "optimize.anneal.calls", "par.session.trial.calls",
    "par.session.commit.calls", "sta.array.compile.calls",
    "sta.array.propagate.calls", "sta.array.propagate.columns",
    "sta.engine.analyze.calls", "sta.mc.calls", "sta.mc.samples",
    "flows.cache.hits", "flows.cache.misses", "sizing.moves",
)


class Tracer:
    """Per-layer counters and in-memory spans for traced units."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.unit = -1
        self._stack: list[int] = []
        self._sweep_flow_s = 0.0
        #: Every traced flow's stage walls summed to at most its wall.
        self.stage_walls_within_flow = True
        self.patches = [Patch(target, self._maker(name))
                        for name, target in SPAN_TARGETS.items()]

    # -- wrapping ------------------------------------------------------

    def _maker(self, name: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                span = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(span)
                started = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    ended = time.perf_counter()
                    self._stack.pop()
                    self.spans[span] = (name, started, ended, parent,
                                        self.unit)
                    self.calls[name] += 1
                    self.secs[name] += ended - started
                self._observe(name, args, kwargs, result, ended - started)
                return result
            return traced
        return make

    def _observe(self, name: str, args: tuple, kwargs: dict, result: Any,
                 wall_s: float) -> None:
        """Per-call attributes read from arguments and results."""
        if name == "sta.array.propagate":
            derates = args[3] if len(args) > 3 else kwargs["derates"]
            self.extra["sta.array.propagate.columns"] += len(derates)
        elif name == "sta.mc":
            self.extra["sta.mc.samples"] += len(result)
        elif name == "flows.engine.run_backend_flow":
            stage_sum = 0.0
            for record in result.stage_records:
                key = f"flows.{result.style}.{record.name}.s"
                self.extra[key] += record.wall_s
                stage_sum += record.wall_s
            self.extra[f"flows.{result.style}.overhead_s"] += (
                wall_s - stage_sum
            )
            self.stage_walls_within_flow &= stage_sum <= wall_s
            self.extra["sizing.moves"] += result.notes.get(
                "sizing_moves", 0.0
            )
            self._sweep_flow_s += wall_s
        elif name == "flows.sweep":
            # One sweep per unit, so every flow of the unit is a point.
            self.extra["flows.sweep.overhead_s"] += (
                wall_s - self._sweep_flow_s
            )

    def begin_unit(self) -> None:
        self.unit += 1
        self._sweep_flow_s = 0.0
        for patch in self.patches:
            patch.install()

    def end_unit(self, cache_stats: dict) -> None:
        for patch in reversed(self.patches):
            patch.uninstall()
        self.extra["flows.cache.hits"] += cache_stats["hits"]
        self.extra["flows.cache.misses"] += cache_stats["misses"]

    def restored(self) -> bool:
        return all(patch.restored() for patch in self.patches)

    # -- reading -------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Every count named in :data:`DETERMINISTIC`, totalled."""
        merged: dict[str, float] = {}
        for key in DETERMINISTIC:
            base, _, field = key.rpartition(".")
            if field == "calls":
                merged[key] = self.calls.get(base, 0) + self.calls.get(
                    f"{base}.object", 0)
            else:
                merged[key] = self.extra.get(key, 0.0)
        return merged

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics over every traced unit so far."""
        ops = max(ops, 1)
        calls = self.counts()
        out: dict[str, float] = {}
        for style in STYLES:
            for stage in STAGES:
                key = f"flows.{style}.{stage}.s"
                out[key] = self.extra.get(key, 0.0) / ops
            key = f"flows.{style}.overhead_s"
            out[key] = self.extra.get(key, 0.0) / ops
        hits, misses = calls["flows.cache.hits"], calls["flows.cache.misses"]
        out["flows.cache.hits"] = hits / ops
        out["flows.cache.misses"] = misses / ops
        out["flows.cache.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        out["flows.cache.get.s"] = self.secs.get("flows.cache.get", 0.0) / ops
        out["flows.cache.put.s"] = self.secs.get("flows.cache.put", 0.0) / ops
        out["flows.sweep.overhead_s"] = (
            self.extra.get("flows.sweep.overhead_s", 0.0) / ops
        )
        for layer in ("physical.place", "physical.assign_slots",
                      "optimize.anneal"):
            out[f"{layer}.calls"] = calls[f"{layer}.calls"] / ops
            out[f"{layer}.s"] = self.secs.get(layer, 0.0) / ops
        out["sizing.moves"] = calls["sizing.moves"] / ops
        secs = {}
        for layer in ("par.session.trial", "par.session.commit"):
            secs[layer] = self.secs.get(layer, 0.0) + self.secs.get(
                f"{layer}.object", 0.0)
            out[f"{layer}.calls"] = calls[f"{layer}.calls"] / ops
            out[f"{layer}.s"] = secs[layer] / ops
        trials = calls["par.session.trial.calls"]
        out["par.session.trial.us_per_call"] = (
            1e6 * secs["par.session.trial"] / trials if trials else 0.0
        )
        out["par.session.accept_ratio"] = (
            calls["par.session.commit.calls"] / trials if trials else 0.0
        )
        out["sta.array.compile.calls"] = calls["sta.array.compile.calls"] / ops
        out["sta.array.compile.s"] = (
            self.secs.get("sta.array.compile", 0.0) / ops
        )
        props = calls["sta.array.propagate.calls"]
        prop_s = self.secs.get("sta.array.propagate", 0.0)
        out["sta.array.propagate.calls"] = props / ops
        out["sta.array.propagate.s"] = prop_s / ops
        out["sta.array.propagate.us_per_call"] = (
            1e6 * prop_s / props if props else 0.0
        )
        out["sta.array.propagate.columns_per_call"] = (
            calls["sta.array.propagate.columns"] / props if props else 0.0
        )
        out["sta.engine.analyze.calls"] = (
            calls["sta.engine.analyze.calls"] / ops
        )
        out["sta.engine.analyze.s"] = (
            self.secs.get("sta.engine.analyze", 0.0) / ops
        )
        samples = calls["sta.mc.samples"]
        mc_s = self.secs.get("sta.mc", 0.0)
        out["sta.mc.calls"] = calls["sta.mc.calls"] / ops
        out["sta.mc.s"] = mc_s / ops
        out["sta.mc.us_per_sample"] = 1e6 * mc_s / samples if samples else 0.0
        out["core.gap.s"] = self.secs.get("core.gap", 0.0) / ops
        return out

    def write_spans(self, path: str, context: dict) -> None:
        """Write the in-memory spans as JSON lines (one header line)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"context": context}) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, unit = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit,
                }) + "\n")
