"""Tests for the fault-tolerant sweep supervisor.

The contracts under test: every injected fault (worker kill, task
hang, in-task crash, corrupt result, stall escalation) recovers to
results byte-identical to the fault-free run; exhausted tasks
quarantine into ordered :class:`TaskFailure` placeholders; serial and
pool paths raise the same exceptions when no retry policy is armed;
and the recovery events reach the live bus even on failure paths; and
a worker whose parent dies exits instead of lingering.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs import live
from repro.par.sweep import (
    SweepWorkerError,
    current_attempt,
    run_sweep,
    run_sweep_report,
)
from repro.robust.retry import RetryPolicy, TaskFailure, attempt_seed


@pytest.fixture(autouse=True)
def _clean_layers():
    live.disable()
    live.configure_watch()
    live.get_aggregate().reset()
    obs.disable()
    obs.reset()
    yield
    live.disable()
    live.configure_watch()
    live.get_aggregate().reset()
    obs.disable()
    obs.reset()


def square(x):
    """Top-level so it pickles into pool workers."""
    return x * x


def fail_on_negative(x):
    if x < 0:
        raise ValueError(f"bad task {x}")
    return x * x


def seeded_square(task):
    """Attempt-aware task: combines its seed with the running attempt."""
    index, seed = task
    return (index, attempt_seed(seed, current_attempt()))


FAST_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.0)


class TestChaosRecovery:
    """Acceptance criterion: a 2-worker sweep with an injected worker
    kill and an injected task hang completes with results byte-identical
    to the fault-free run."""

    def test_kill_worker_recovers_byte_identical(self):
        tasks = list(range(6))
        clean = run_sweep(square, tasks, workers=2, label="chaos.kill")
        report = run_sweep_report(
            square, tasks, workers=2, label="chaos.kill",
            retry=FAST_RETRY, chaos="kill-worker:3",
        )
        assert report.results == clean
        assert report.ok
        assert report.retries >= 1
        assert report.workers_lost >= 1

    def test_hang_task_times_out_byte_identical(self):
        tasks = list(range(6))
        clean = run_sweep(square, tasks, workers=2, label="chaos.hang")
        report = run_sweep_report(
            square, tasks, workers=2, label="chaos.hang",
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0,
                              timeout_s=0.5),
            chaos="hang-task:2", stall_timeout_s=None,
        )
        assert report.results == clean
        assert report.ok
        assert report.retries >= 1
        assert report.workers_lost >= 1

    def test_crash_task_retries_byte_identical(self):
        tasks = list(range(5))
        clean = run_sweep(square, tasks, workers=2, label="chaos.crash")
        report = run_sweep_report(
            square, tasks, workers=2, label="chaos.crash",
            retry=FAST_RETRY, chaos="crash-task:1",
        )
        assert report.results == clean
        assert report.retries >= 1
        assert report.workers_lost == 0  # the worker survives a raise

    def test_corrupt_result_retries_byte_identical(self):
        tasks = list(range(5))
        clean = run_sweep(square, tasks, workers=2, label="chaos.corrupt")
        report = run_sweep_report(
            square, tasks, workers=2, label="chaos.corrupt",
            retry=FAST_RETRY, chaos="corrupt-result:4",
        )
        assert report.results == clean
        assert report.retries >= 1

    def test_serial_crash_task_retries(self):
        # The only chaos kind that applies in-process.
        report = run_sweep_report(
            square, [1, 2, 3], workers=1, label="chaos.serial",
            retry=FAST_RETRY, chaos="crash-task:1",
        )
        assert report.results == [1, 4, 9]
        assert report.retries == 1

    def test_bad_chaos_spec_rejected_before_any_work(self):
        from repro.robust.faults import FaultInjectionError

        with pytest.raises(FaultInjectionError):
            run_sweep(square, [1, 2], workers=2, chaos="set-fire:1")

    def test_attempt_zero_seeding_identical_with_retry_armed(self):
        # attempt_seed(seed, 0) is the identity, so a fault-free run
        # with retries armed is bit-identical to a retry-free run.
        tasks = [(i, 1000 + i) for i in range(6)]
        base = run_sweep(seeded_square, tasks, workers=2, label="seeds")
        armed = run_sweep_report(seeded_square, tasks, workers=2,
                                 label="seeds", retry=FAST_RETRY)
        assert armed.results == base


class TestStallEscalation:
    def test_stall_escalates_to_retry_and_recovers(self):
        # A hung task with no heartbeat trips the stall detector; with
        # a retry policy armed the supervisor kills the silent worker
        # and re-dispatches instead of raising SweepStallError.
        tasks = list(range(4))
        report = run_sweep_report(
            square, tasks, workers=2, label="stall.retry",
            heartbeat_s=None, stall_timeout_s=0.3,
            retry=FAST_RETRY, chaos="hang-task:1",
        )
        assert report.results == [x * x for x in tasks]
        assert report.stalls
        assert report.stalls[0]["source"].startswith("worker-")
        assert report.workers_lost >= 1
        assert report.retries >= 1


class TestQuarantine:
    def test_placeholders_keep_task_order(self):
        report = run_sweep_report(
            fail_on_negative, [1, -1, 2, -2], workers=2,
            label="quarantine", retry=FAST_RETRY,
        )
        assert not report.ok
        assert report.results[0] == 1
        assert report.results[2] == 4
        for slot, index in ((report.results[1], 1),
                            (report.results[3], 3)):
            assert isinstance(slot, TaskFailure)
            assert slot.index == index
            assert slot.kind == "error"
            assert slot.attempts == 2
            assert "bad task" in slot.error
        assert report.failures == [report.results[1], report.results[3]]
        assert report.retries == 2

    def test_serial_and_pool_quarantine_identically(self):
        serial = run_sweep_report(fail_on_negative, [1, -1, 2],
                                  workers=1, label="q.par",
                                  retry=FAST_RETRY)
        pool = run_sweep_report(fail_on_negative, [1, -1, 2],
                                workers=2, label="q.par",
                                retry=FAST_RETRY)
        assert serial.results[1] == pool.results[1]
        assert serial.results == pool.results
        assert serial.failures == pool.failures

    def test_hang_quarantines_with_hang_kind(self):
        report = run_sweep_report(
            square, [0, 1, 2], workers=2, label="q.hang",
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0,
                              timeout_s=0.3),
            chaos="hang-task:1", stall_timeout_s=None,
        )
        failure = report.results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "hang"
        assert "timeout" in failure.error
        assert report.results[0] == 0 and report.results[2] == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_false_reraises_original(self, workers):
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0,
                             quarantine=False)
        with pytest.raises(ValueError, match="bad task"):
            run_sweep(fail_on_negative, [1, -1, 2], workers=workers,
                      retry=policy)


class TestExceptionParity:
    """Satellite: serial and pool paths fail the same way without retry."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_propagates_unwrapped(self, workers):
        with pytest.raises(ValueError, match="bad task -5"):
            run_sweep(fail_on_negative, [1, -5, 2], workers=workers)

    def test_worker_death_without_retry_is_worker_error(self):
        with pytest.raises(SweepWorkerError, match="crash"):
            run_sweep(square, [0, 1, 2], workers=2,
                      chaos="kill-worker:1")

    def test_corrupt_result_without_retry_is_worker_error(self):
        with pytest.raises(SweepWorkerError, match="corrupt"):
            run_sweep(square, [0, 1, 2], workers=2,
                      chaos="corrupt-result:1")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_event_parity(self, workers):
        # Exception paths publish the same task event shape serially
        # and in a pool: a task.start, then a task.done with error=True.
        sub = live.enable().subscribe()
        with pytest.raises(ValueError):
            run_sweep(fail_on_negative, [1, -1], workers=workers,
                      label="parity")
        time.sleep(0.05)
        events = [e for e in sub.drain()
                  if e.name == "parity" and e.attrs.get("index") == 1]
        kinds = [e.kind for e in events]
        assert kinds == ["task.start", "task.done"]
        assert events[1].attrs.get("error") is True


class TestPrecomputedReplay:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_replayed_tasks_never_execute(self, workers):
        # Task 1 would raise; the precomputed slot short-circuits it.
        report = run_sweep_report(
            fail_on_negative, [1, -1, 2], workers=workers,
            label="replay", precomputed={1: 99},
        )
        assert report.results == [1, 99, 4]
        assert report.replays == [1]
        assert report.ok

    def test_replay_emits_event(self):
        sub = live.enable().subscribe()
        run_sweep_report(square, [1, 2, 3], workers=1, label="replay.ev",
                         precomputed={0: 111, 2: 333})
        replays = [e for e in sub.drain() if e.kind == "task.replay"]
        assert sorted(e.attrs["index"] for e in replays) == [0, 2]

    def test_out_of_range_precomputed_ignored(self):
        report = run_sweep_report(square, [1, 2], workers=1,
                                  precomputed={7: 49})
        assert report.results == [1, 4]
        assert report.replays == []


class TestRecoveryEvents:
    """Failure-path events reach the parent bus: a dead worker's
    trailing events are read before it is replaced, and the recovery
    event kinds are published."""

    def test_retry_and_worker_lost_events_published(self):
        sub = live.enable().subscribe()
        run_sweep_report(square, list(range(4)), workers=2,
                         label="ev.kill", retry=FAST_RETRY,
                         chaos="kill-worker:1")
        events = sub.drain()
        retries = [e for e in events if e.kind == "task.retry"]
        assert retries and retries[0].attrs["failure"] == "crash"
        assert retries[0].attrs["index"] == 1
        lost = [e for e in events if e.kind == "worker.lost"]
        assert lost and lost[0].attrs["reason"] == "crash"

    def test_quarantine_event_published_from_pool(self):
        sub = live.enable().subscribe()
        report = run_sweep_report(
            fail_on_negative, [1, -1, 2, 3], workers=2,
            label="ev.quarantine", retry=FAST_RETRY,
        )
        assert not report.ok
        events = sub.drain()
        quarantines = [e for e in events if e.kind == "task.quarantine"]
        assert len(quarantines) == 1
        attrs = quarantines[0].attrs
        assert attrs["index"] == 1
        assert attrs["failure"] == "error"
        assert attrs["attempts"] == 2
        # The healthy tasks' worker-side events also made it out.
        done = [e for e in events if e.kind == "task.done"
                and not e.attrs.get("error")]
        assert len(done) >= 3
        # Progress reached the full task count despite the quarantine.
        progress = [e for e in events if e.kind == "sweep.progress"]
        assert progress[-1].attrs["done"] == 4

    def test_every_task_event_is_in_before_run_sweep_returns(self):
        # Events share the task pipe and precede the reply, so nothing
        # is left in flight when the sweep returns: no grace, no sleep.
        bus = live.enable()
        sub = bus.subscribe()
        tasks = list(range(8))
        results = run_sweep(square, tasks, workers=2, label="ev.order",
                            heartbeat_s=0.01)
        assert results == [x * x for x in tasks]
        assert bus.stats()["by_kind"]["task.done"] == len(tasks)
        opened: dict[str, list] = {}
        closed: dict[str, list] = {}
        for event in sub.drain():
            if not event.source.startswith("worker-"):
                continue
            key = (event.attrs["index"], event.attrs["attempt"])
            if event.kind == "task.start":
                opened.setdefault(event.source, []).append(key)
            elif event.kind == "task.done":
                closed.setdefault(event.source, []).append(key)
        assert opened and opened == closed
        assert sorted(k for keys in closed.values() for k in keys) == [
            (i, 0) for i in tasks
        ]


class TestChaosSelftest:
    def test_selftest_scenarios_all_pass(self):
        from repro.robust.faults import run_chaos_selftest

        reports = run_chaos_selftest(workers=2)
        assert [r.fault for r in reports] == [
            "chaos_kill_worker_recovers",
            "chaos_hang_task_times_out",
            "chaos_crash_task_retries",
            "chaos_corrupt_result_retries",
            "retry_exhaustion_quarantines",
        ]
        assert all(r.passed for r in reports)


#: A two-worker sweep whose task 0 returns at once (its worker goes idle)
#: while task 1 sleeps.  Each task first records its worker's pid.
_ORPHAN_SWEEP = """
import os, sys, time
from repro.par.sweep import run_sweep

def task(index):
    path = os.path.join(sys.argv[1], f"worker{index}")
    with open(path + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    if index == 1:
        time.sleep(30.0)
    return index

run_sweep(task, [0, 1], workers=2)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not Path("/proc/self/stat").exists(),
    reason="needs fork workers and /proc",
)
def test_idle_worker_exits_when_the_parent_is_killed(tmp_path):
    # Was: each later worker inherited the parent ends of the earlier
    # workers' pipes, so while the busy worker lived the idle one never
    # saw EOF once the parent was gone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src,
               REPRO_RUNS_DIR=str(tmp_path / "runs"))
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SWEEP, str(tmp_path)], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        paths = [tmp_path / "worker0", tmp_path / "worker1"]
        while not all(path.exists() for path in paths):
            assert parent.poll() is None, "the sweep exited early"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.05)
        pids = [int(path.read_text()) for path in paths]
        time.sleep(0.5)  # let worker 0 reply and block on its pipe
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        deadline = time.monotonic() + 5.0
        while _alive(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pids[0]), "the idle worker outlived its parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
