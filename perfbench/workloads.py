"""The benchmark's three workloads: set-up, one op, and its outputs.

Each workload class builds everything an op needs in ``__init__`` (the
part ``setup_s`` prices) and runs one *unit* of user work per
``run_unit`` call.  A unit is one op for ``gap3`` and ``mc_population``
and one 8-point sweep (eight ops) for ``sizing_sweep``.  ``run_unit``
returns the unit's simulated outputs as plain JSON data, so they can be
compared with the pinned references in ``refs.json``.

``mode`` selects the execution path of the same design points:

* ``"timed"``: the default production path (array STA, batched MC);
* ``"check"``: the production path with every array analysis
  cross-checked by the object STA (``check_array=True``), plus a prefix
  of the MC population re-run by the sequential oracle;
* ``"object"``: the object-engine oracle path (``use_array=False``,
  sequential MC).  ``make_refs.py`` records the references with it.

Only the standard library is imported at module level: the caller
decides when ``repro`` (and its set-up cost) is loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib

#: Styles of the ``gap3`` comparison, baseline first.
GAP_STYLES = ("asic", "structured", "custom")
#: ``repro-gap gap`` defaults.
GAP_BITS = 8
GAP_SIZING_MOVES = 20
GAP_TARGET_FO4 = 14.0

#: ``sizing_sweep`` grid: sizing budget x at-speed test, 8 points.
SWEEP_SIZING_MOVES = (20, 15, 10, 5)
SWEEP_SPEED_TEST = (False, True)

#: ``mc_population`` design: 8-bit Wallace multiplier (518 cells).
MC_WORKLOAD = "multiplier_wallace"
MC_BITS = 8
MC_SAMPLES = 10_000
#: Samples the sequential oracle re-runs in ``"check"`` mode.  The
#: batched MC consumes the RNG in the sequential loop's order, so the
#: first N batched periods equal an N-sample sequential run.
MC_CHECK_PREFIX = 256

#: Option overrides of each execution mode (see the module docstring).
MODES = {"timed": {}, "check": {"check_array": True},
         "object": {"use_array": False}}


def reset_caches() -> None:
    """Empty the stage cache and the arc memo, as in a fresh CLI run."""
    from repro.flows import cache as stage_cache
    from repro.par import memo as par_memo

    stage_cache.reset()
    par_memo.reset()


def _flow_outputs(result) -> dict:
    return {
        "min_period_ps": result.min_period_ps,
        "quoted_frequency_mhz": result.quoted_frequency_mhz,
        "sizing_moves": result.notes.get("sizing_moves", 0.0),
    }


class Gap3:
    """``repro-gap gap --styles asic,structured,custom`` at the defaults."""

    name = "gap3"
    ops_per_unit = 1

    def __init__(self, seed: int) -> None:
        import repro.cli  # noqa: F401  (set-up prices the CLI import)
        from repro.core import gap
        from repro.flows import registry

        self._gap = gap
        self._registry = registry
        self.backends = [registry.get_backend(s) for s in GAP_STYLES]
        self.options = [
            dataclasses.replace(
                backend.gap_options(
                    bits=GAP_BITS, sizing_moves=GAP_SIZING_MOVES,
                    target_fo4=GAP_TARGET_FO4, on_error="raise",
                ),
                seed=seed,
            )
            for backend in self.backends
        ]

    def run_unit(self, mode: str = "timed") -> dict:
        policy = MODES[mode]
        reset_caches()
        results = [
            self._registry.run_backend_flow(
                backend, dataclasses.replace(options, **policy)
            )
            for backend, options in zip(self.backends, self.options)
        ]
        report = self._gap.analyze_multi_gap(results, baseline="asic")
        pairwise = {}
        for other, pair in zip(report.others, report.pairwise):
            if abs(pair.factor_product() - pair.total_ratio) > 1e-9 * (
                pair.total_ratio
            ):
                raise ValueError(
                    f"{other.style}: factor product "
                    f"{pair.factor_product()!r} != total ratio "
                    f"{pair.total_ratio!r}"
                )
            pairwise[other.style] = {
                "total_ratio": pair.total_ratio,
                "cycle_depth_factor": pair.cycle_depth_factor,
                "technology_factor": pair.technology_factor,
                "quoting_factor": pair.quoting_factor,
            }
        return {
            "flows": {r.style: _flow_outputs(r) for r in results},
            "pairwise": pairwise,
        }


class SizingSweep:
    """A serial 8-point ASIC ``run_flow_sweep`` sharing one prefix."""

    name = "sizing_sweep"
    ops_per_unit = len(SWEEP_SIZING_MOVES) * len(SWEEP_SPEED_TEST)

    def __init__(self, seed: int) -> None:
        import repro.cli  # noqa: F401
        from repro.flows import registry, sweep
        from repro.flows.options import AsicFlowOptions

        registry.load_builtin_backends()
        self._sweep = sweep
        self.points = [
            AsicFlowOptions(sizing_moves=moves, speed_test=speed_test,
                            seed=seed)
            for moves in SWEEP_SIZING_MOVES
            for speed_test in SWEEP_SPEED_TEST
        ]

    def run_unit(self, mode: str = "timed") -> dict:
        policy = MODES[mode]
        reset_caches()
        results = self._sweep.run_flow_sweep(
            [dataclasses.replace(p, **policy) for p in self.points],
            workers=1,
        )
        return {
            "points": [
                {"sizing_moves_budget": p.sizing_moves,
                 "speed_test": p.speed_test, **_flow_outputs(r)}
                for p, r in zip(self.points, results)
            ],
        }


class McPopulation:
    """Netlist-backed STA Monte Carlo plus the standard corners."""

    name = "mc_population"
    ops_per_unit = 1

    def __init__(self, seed: int) -> None:
        import repro.cli  # noqa: F401
        from repro.cells.builder import rich_asic_library
        from repro.flows.asic import WORKLOADS
        from repro.sta import statistical
        from repro.sta.clocking import asic_clock
        from repro.sta.sequential import register_boundaries
        from repro.tech import corners
        from repro.tech.process import CMOS250_ASIC

        self._statistical = statistical
        self._corners = corners
        self.seed = seed
        self.library = rich_asic_library(CMOS250_ASIC)
        self.module = register_boundaries(
            WORKLOADS[MC_WORKLOAD](MC_BITS, self.library), self.library
        )
        self.clock = asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps)

    def _periods(self, samples: int, batched: bool):
        return self._statistical.monte_carlo_min_period(
            self.module, self.library, self.clock, samples=samples,
            seed=self.seed, batched=batched,
        )

    def run_unit(self, mode: str = "timed") -> dict:
        periods = self._periods(MC_SAMPLES, batched=mode != "object")
        reports = self._corners.evaluate_corners(
            self.module, self.library, self.clock,
            use_array=mode != "object",
        )
        if mode == "check":
            prefix = self._periods(MC_CHECK_PREFIX, batched=False)
            if not (prefix == periods[:MC_CHECK_PREFIX]).all():
                raise ValueError("batched MC differs from the sequential "
                                 "oracle on the checked prefix")
            oracle = self._corners.evaluate_corners(
                self.module, self.library, self.clock, use_array=False
            )
            for corner, report in reports.items():
                if report.min_period_ps != oracle[corner].min_period_ps:
                    raise ValueError(f"array corner {corner.name} differs "
                                     "from the object engine")
        corner_ps = {c.name: r.min_period_ps for c, r in reports.items()}
        ordered = [corner_ps[name] for name in
                   ("WORST_CASE", "SLOW", "TYPICAL", "FAST", "BEST_CASE")]
        if ordered != sorted(ordered, reverse=True):
            raise ValueError(f"corner periods out of order: {corner_ps}")
        return {
            "mc_sha256": hashlib.sha256(periods.tobytes()).hexdigest(),
            "mc_mean_ps": float(periods.mean()),
            "mc_max_ps": float(periods.max()),
            "corners_ps": corner_ps,
        }


WORKLOADS = {cls.name: cls for cls in (Gap3, SizingSweep, McPopulation)}
