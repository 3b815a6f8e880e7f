"""Tests for the parallel sweep runner and per-task seeding.

The contracts under test: results come back in task order and are
identical for any worker count; per-task seeds depend only on (seed,
count); and worker spans are adopted into the parent trace.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs import TickClock, Tracer, metrics_to_flat
from repro.par.sweep import SweepError, run_sweep, task_seeds
from repro.variation import NEW_PROCESS, sample_chip_speeds


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def square(x):
    """Top-level so it pickles into pool workers."""
    return x * x


def traced_square(x):
    with obs.span("worker.square", x=x):
        return x * x


class TestRunSweep:
    def test_serial_results_in_task_order(self):
        assert run_sweep(square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        tasks = list(range(20))
        serial = run_sweep(square, tasks, workers=1)
        parallel = run_sweep(square, tasks, workers=2)
        assert serial == parallel == [t * t for t in tasks]

    def test_single_task_short_circuits(self):
        assert run_sweep(square, [7], workers=8) == [49]

    def test_empty_tasks(self):
        assert run_sweep(square, [], workers=4) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(SweepError):
            run_sweep(square, [1], workers=-1)

    def test_counts_tasks_when_observed(self):
        obs.enable()
        run_sweep(square, [1, 2, 3], workers=1)
        flat = metrics_to_flat(obs.get_metrics())
        assert flat["par.sweep.runs"] == 1
        assert flat["par.sweep.tasks"] == 3

    def test_worker_spans_adopted_into_parent_trace(self):
        obs.enable()
        run_sweep(traced_square, [1, 2, 3, 4], workers=2, label="sweep.t")
        spans = obs.get_tracer().finished()
        names = [s.name for s in spans]
        assert "sweep.t" in names
        workers = [s for s in spans if s.name == "worker.square"]
        assert len(workers) == 4
        sweep = next(s for s in spans if s.name == "sweep.t")
        # Adopted roots hang under the (already finished) sweep span's
        # parent chain -- every worker span must be re-rooted, not lost.
        assert all(w.depth >= sweep.depth for w in workers)


class TestTaskSeeds:
    def test_deterministic(self):
        assert task_seeds(42, 8) == task_seeds(42, 8)

    def test_distinct_per_task_and_seed(self):
        seeds = task_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert task_seeds(43, 8) != seeds

    def test_prefix_stability(self):
        # Spawned children are positional: the first k of a longer
        # schedule equal the k-schedule.
        assert task_seeds(7, 16)[:4] == task_seeds(7, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(SweepError):
            task_seeds(1, -1)


class TestMonteCarloSweep:
    def test_population_independent_of_workers(self):
        one = sample_chip_speeds(400.0, NEW_PROCESS, count=20000, seed=5,
                                 workers=1)
        two = sample_chip_speeds(400.0, NEW_PROCESS, count=20000, seed=5,
                                 workers=2)
        assert np.array_equal(one.frequencies_mhz, two.frequencies_mhz)

    def test_population_depends_on_seed(self):
        one = sample_chip_speeds(400.0, NEW_PROCESS, count=4000, seed=5)
        other = sample_chip_speeds(400.0, NEW_PROCESS, count=4000, seed=6)
        assert not np.array_equal(one.frequencies_mhz,
                                  other.frequencies_mhz)

    def test_population_finite_and_sorted(self):
        dist = sample_chip_speeds(400.0, NEW_PROCESS, count=9000, seed=1)
        freqs = dist.frequencies_mhz
        assert np.all(np.isfinite(freqs))
        assert np.all(np.diff(freqs) >= 0)
        assert len(freqs) == 9000


class TestTracerAdopt:
    def test_adopt_reindexes_and_reroots(self):
        worker = Tracer(clock=TickClock())
        with worker.span("w.outer"):
            with worker.span("w.inner"):
                pass
        parent = Tracer(clock=TickClock())
        with parent.span("sweep") as sweep:
            adopted = parent.adopt(worker.finished())
        assert [s.name for s in adopted] == ["w.outer", "w.inner"]
        outer, inner = adopted
        assert outer.parent == sweep.index
        assert outer.depth == sweep.depth + 1
        assert inner.parent == outer.index
        assert inner.depth == outer.depth + 1

    def test_adopt_without_open_span_roots_at_zero(self):
        worker = Tracer(clock=TickClock())
        with worker.span("w"):
            pass
        parent = Tracer(clock=TickClock())
        adopted = parent.adopt(worker.finished())
        assert adopted[0].parent is None
        assert adopted[0].depth == 0
