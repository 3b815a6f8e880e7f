"""Deterministic, fault-tolerant process sweep runner with live events.

Fans a list of tasks across worker processes with three guarantees the
Monte Carlo sampler and the design-space surveys rely on:

* **Ordered reduce** -- results come back in task order, whatever order
  the workers finished in.
* **Determinism in the worker count** -- the runner never partitions
  work by worker; callers derive per-task seeds from the *task index*
  (:func:`task_seeds`), so ``workers=1`` and ``workers=8`` produce
  identical outputs.
* **Trace propagation** -- when observability is enabled in the parent,
  each worker records its own spans and ships the finished list back
  with its result; the parent re-roots them under the sweep span via
  :meth:`repro.obs.trace.Tracer.adopt`, so ``--trace`` output stays
  complete under ``--workers N``.

The pool is a *supervisor*, not a ``multiprocessing.Pool``: the parent
owns one long-lived worker process per slot, dispatches tasks over
duplex pipes, and watches liveness.  A worker that dies mid-task
(segfault, OOM kill, ``os._exit``), wedges past the per-task timeout,
goes silent past the stall timeout, or ships an unpicklable result is
killed and replaced, and its task is re-dispatched under the sweep's
:class:`~repro.robust.retry.RetryPolicy` -- deterministic exponential
backoff, bounded attempts, and quarantine for tasks that exhaust them.
A quarantined task's slot in the ordered results holds a structured
:class:`~repro.robust.retry.TaskFailure` instead of aborting the sweep.
Without a retry policy the first failure propagates, matching the
plain-``Pool`` semantics this runner replaced.

On top of those, the runner is the cross-process transport of the live
telemetry layer (:mod:`repro.obs.live`).  When the live bus is enabled
in the parent (or stall detection is requested), each worker gets its
own bus whose events -- span open/close, flow-stage progress, task
start/done, heartbeats -- are *sent as they happen* as ``("event",
payload)`` messages on the same pipe as the task replies, behind one
send lock.  The supervisor's wait loop is the only reader: it
re-sequences the events into the parent bus, so dashboards and JSONL
sinks see worker progress live instead of at ordered-reduce time.  One
pipe is one ordered stream, so a task's events always precede its
reply, and nothing is left to drain once the workers stop -- also on
the failure paths, where a dead worker's trailing events are read
before it is replaced.  Span adoption and ledger merging still run on
the replies, so traces and metrics are identical with the bus on or
off.

Worker liveness rides the same channel: a daemon :class:`~repro.obs.
live.Heartbeat` thread in each worker publishes periodic beacons even
while the worker's main thread is inside a solver, and the parent's
:class:`~repro.obs.live.StallDetector` flags a busy worker gone silent
past the configured timeout.  With a retry policy armed the stall is
*escalated to a retry* -- the worker is killed and the task
re-dispatched; without one it raises a structured
:class:`SweepStallError`, so a wedged worker becomes a diagnostic, not
a hung sweep.

When the run ledger is recording in the parent, workers are switched
into *buffering* mode: run records they would have written (e.g. the
flow records of a design-space sweep point) come back with the results
and are merged into the parent's ledger, marked ``worker=True`` -- one
ledger regardless of worker count.  Records are adopted as each task
*arrives*, not at ordered-reduce time, so a sweep killed halfway keeps
every completed point on disk for ``--resume-sweep``.

``workers <= 1`` (or a single task) short-circuits to a plain serial
loop in-process -- no pool, no pickling -- which still publishes the
same per-task progress events when the bus is on and honours the same
retry/quarantine policy (minus the wall-clock timeout, which needs a
killable process).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.obs import instrument as _instrument
from repro.obs import ledger as _ledger
from repro.obs import live as _live
from repro.obs import profile as _profile
from repro.obs.events import Event
from repro.robust import faults as _faults
from repro.robust.retry import RetryPolicy, TaskFailure


class SweepError(ValueError):
    """Raised for invalid sweep configuration."""


class SweepStallError(RuntimeError):
    """A pool worker went silent past the stall timeout.

    Attributes:
        reports: structured :class:`~repro.obs.live.StallReport` dicts,
            worst (longest-silent) first.
    """

    def __init__(self, message: str, reports: list[dict]) -> None:
        super().__init__(message)
        self.reports = reports


class SweepWorkerError(RuntimeError):
    """A worker failed in a way that is not the task function raising.

    Raised (absent a retry policy) when a worker process dies mid-task,
    when its result cannot be pickled across the pipe, or when the
    shipped result cannot be unpickled in the parent.
    """


#: Sentinel: "read this knob from repro.obs.live.watch_config()".
_WATCH_DEFAULT = object()

#: Parent-side wait timeout between supervision passes (s).
_POLL_S = 0.05


def task_seeds(seed: int, count: int) -> list[int]:
    """Independent per-task RNG seeds derived from one root seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so the streams are
    statistically independent and the list depends only on ``(seed,
    count)`` -- never on the worker count or scheduling order.
    """
    if count < 0:
        raise SweepError("seed count must be non-negative")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(2, np.uint64)[0]) for child in children]


# ---------------------------------------------------------------------------
# Attempt visibility.

#: Attempt number of the task currently executing in this process (set
#: in the worker loop and the serial loop around each invocation).
_current_attempt = 0


def current_attempt() -> int:
    """Attempt number (0-based) of the task currently running.

    Task functions that want retry-aware seeding combine this with
    :func:`repro.robust.retry.attempt_seed`; attempt 0 leaves the base
    seed unchanged, so fault-free runs are bit-identical with retries
    on or off.
    """
    return _current_attempt


# ---------------------------------------------------------------------------
# Report types.

@dataclass
class SweepReport:
    """Everything a fault-tolerant sweep did, beyond the results.

    Attributes:
        label: the sweep label.
        tasks: task count.
        workers: requested worker count.
        results: per-task outcomes in task order; a task that exhausted
            its retries holds a :class:`~repro.robust.retry.TaskFailure`
            placeholder at its index.
        failures: the quarantined :class:`TaskFailure` records, by
            task index.
        retries: how many re-dispatches the supervisor performed.
        replays: task indices replayed from precomputed results
            (ledger-backed resume) instead of executed.
        stalls: stall reports the supervisor escalated to retries.
        workers_lost: worker processes that died or were killed and
            replaced.
    """

    label: str
    tasks: int
    workers: int
    results: list[Any] = field(default_factory=list)
    failures: list[TaskFailure] = field(default_factory=list)
    retries: int = 0
    replays: list[int] = field(default_factory=list)
    stalls: list[dict] = field(default_factory=list)
    workers_lost: int = 0

    @property
    def ok(self) -> bool:
        """True when every task produced a real result."""
        return not self.failures


# ---------------------------------------------------------------------------
# Worker side.

def _send_reply(send: Callable[[tuple], None], reply: tuple) -> None:
    """Ship a reply to the parent; degrade to an error on pickle
    failure.

    ``Connection.send`` pickles before writing, so a failure here never
    leaves a partial message on the pipe -- the fallback reply is the
    first (and only) reply the parent reads for this task.
    """
    try:
        send(reply)
        return
    except Exception as exc:
        kind, index, attempt = reply[0], reply[1], reply[2]
        what = "result" if kind == "done" else "exception"
        fallback = (
            "error", index, attempt,
            SweepWorkerError(
                f"worker could not ship its {what} for task {index}: "
                f"{exc!r}"
            ),
        )
        try:
            send(fallback)
        except Exception:
            # The pipe itself is gone; exiting surfaces as a crash.
            os._exit(1)


def _worker_main(conn: Any, fn: Callable[[Any], Any], streaming: bool,
                 heartbeat_s: float | None, capture: bool,
                 ledger_on: bool, chaos_spec: str | None, label: str,
                 profile_cfg: tuple[bool, str | None] | None = None,
                 inherited: Sequence[Any] = ()) -> None:
    """Worker process main loop: receive tasks, run, reply.

    Replicates the per-task behaviour of the old pool path -- fresh
    span capture and ledger buffering per task, task.start/task.done
    events, heartbeat task tagging -- but stays resident across tasks
    so the supervisor can re-dispatch work to it.  With ``streaming``
    the worker's bus and heartbeat thread send ``("event", payload)``
    messages down ``conn`` under the same lock as the replies, so a
    task's events reach the parent before its reply.  The parent's
    profiling config rides along so per-stage CPU/memory attribution
    keeps working inside pool workers (a spawn-context worker does not
    inherit the parent's module switches).

    ``inherited`` holds the parent ends of the pipes -- its own and its
    siblings' -- that a forked worker inherits.  They are closed first:
    a worker holding one open would keep itself or a sibling from
    seeing EOF once the parent dies.
    """
    global _current_attempt
    for parent_end in inherited:
        parent_end.close()
    _profile.apply(profile_cfg)
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        # A large message takes several writes; the lock keeps the
        # heartbeat thread from splicing a beat into one.
        with send_lock:
            conn.send(message)

    heartbeat = None
    if streaming:
        bus = _live.enable(source=f"worker-{os.getpid()}", fresh=True)

        bus.set_forward(lambda payload: send(("event", payload)))
        if heartbeat_s is not None:
            heartbeat = _live.Heartbeat(bus, heartbeat_s).start()
    chaos = (_faults.SweepChaos.parse(chaos_spec)
             if chaos_spec is not None else None)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, attempt, task = message
        if ledger_on:
            _ledger.enable_buffering()
        if capture:
            _instrument.enable(fresh=True)
        if heartbeat is not None:
            heartbeat.set_task(index)
        _current_attempt = attempt
        _live.emit("task.start", label, index=index, attempt=attempt)
        started = time.perf_counter()
        try:
            if chaos is not None:
                chaos.trip_in_worker(index, attempt)
            result = fn(task)
            if chaos is not None:
                result = chaos.corrupt_result(index, attempt, result)
        except Exception as exc:
            _live.emit("task.done", label, index=index, error=True,
                       attempt=attempt,
                       wall_s=time.perf_counter() - started)
            if heartbeat is not None:
                heartbeat.set_task(None)
            _send_reply(send, ("error", index, attempt, exc))
            continue
        _live.emit("task.done", label, index=index, attempt=attempt,
                   wall_s=time.perf_counter() - started)
        if heartbeat is not None:
            heartbeat.set_task(None)
        spans = obs.get_tracer().finished() if capture else None
        records = _ledger.drain_buffer() if ledger_on else None
        _send_reply(send, ("done", index, attempt, result, spans, records))
    try:
        conn.close()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Parent side.

def _resolve_watch(heartbeat_s: Any, stall_timeout_s: Any):
    """Apply :func:`repro.obs.live.watch_config` defaults to the knobs."""
    config = _live.watch_config()
    if heartbeat_s is _WATCH_DEFAULT:
        heartbeat_s = config.heartbeat_s
    if stall_timeout_s is _WATCH_DEFAULT:
        stall_timeout_s = config.stall_timeout_s
    if heartbeat_s is not None and not heartbeat_s > 0:
        raise SweepError("heartbeat interval must be positive")
    if stall_timeout_s is not None and not stall_timeout_s > 0:
        raise SweepError("stall timeout must be positive")
    return heartbeat_s, stall_timeout_s


class _Progress:
    """Settled-task count and ETA, published as ``sweep.progress``.

    A task settles once -- by its reply, its quarantine or its replay --
    so a retried task never counts twice, and progress is counted the
    same way with the bus on or off.
    """

    def __init__(self, label: str, total: int) -> None:
        self.label = label
        self.total = total
        self.started = time.monotonic()
        self._settled: set[int] = set()

    @property
    def done(self) -> int:
        return len(self._settled)

    def mark(self, index: int) -> None:
        """Count one task index as settled."""
        if index in self._settled:
            return
        self._settled.add(index)
        if not _live.enabled():
            return
        attrs: dict = {"done": self.done, "total": self.total}
        if 0 < self.done < self.total:
            elapsed = time.monotonic() - self.started
            attrs["eta_s"] = elapsed / self.done * (self.total - self.done)
        _live.emit("sweep.progress", self.label, **attrs)


# ---------------------------------------------------------------------------
# The supervisor.

class _Worker:
    """One supervised worker process and its dispatch pipe."""

    __slots__ = ("process", "conn", "current", "dispatched_at")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.current: tuple[int, int] | None = None  # (index, attempt)
        self.dispatched_at = 0.0

    @property
    def source(self) -> str:
        return f"worker-{self.process.pid}"


class _Supervisor:
    """Parent-side task supervisor: dispatch, collect, recover.

    Owns the worker processes, the pending/backoff queues, and all
    recovery paths: worker death, per-task timeout, stall escalation,
    and unpicklable results.  Each worker's pipe carries its events
    ahead of its replies, and :meth:`_collect` is the pipes' only
    reader.  Results and quarantines are keyed by task index; the
    caller assembles the ordered reduce.
    """

    def __init__(self, ctx: Any, fn: Callable[[Any], Any],
                 items: Sequence[Any], worker_count: int, label: str,
                 capture: bool, ledger_on: bool, streaming: bool,
                 heartbeat_s: float | None,
                 stall_timeout_s: float | None,
                 retry: RetryPolicy | None,
                 chaos_spec: str | None) -> None:
        self.ctx = ctx
        self.fn = fn
        self.items = items
        self.worker_count = worker_count
        self.label = label
        self.capture = capture
        self.ledger_on = ledger_on
        self.streaming = streaming
        self.heartbeat_s = heartbeat_s
        self.progress = _Progress(label, len(items))
        self.detector = (
            _live.StallDetector(stall_timeout_s)
            if stall_timeout_s is not None else None
        )
        self.retry = retry
        self.chaos_spec = chaos_spec
        self.profile_cfg = _profile.snapshot()
        self.workers: list[_Worker] = []
        self.results: dict[int, Any] = {}
        self.failures: dict[int, TaskFailure] = {}
        self.spans_by_index: dict[int, list] = {}
        self.failure_reports: dict[int, list[dict]] = {}
        self.retries = 0
        self.replays: list[int] = []
        self.stall_reports: list[dict] = []
        self.workers_lost = 0
        self.pending: deque[tuple[int, int]] = deque()
        self.backoff: list[tuple[float, int, int]] = []

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        # A forked child inherits every parent end open here, its own
        # included; a spawned one would receive fresh duplicates instead.
        inherited = ([worker.conn for worker in self.workers]
                     + [parent_conn]
                     if self.ctx.get_start_method() == "fork" else [])
        process = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.fn, self.streaming,
                  self.heartbeat_s, self.capture, self.ledger_on,
                  self.chaos_spec, self.label, self.profile_cfg,
                  inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _kill(self, worker: _Worker) -> None:
        """Stop a worker, forcibly if it still runs, and close its pipe."""
        try:
            worker.process.terminate()
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
        except Exception:
            pass
        worker.conn.close()

    def _replace(self, position: int, worker: _Worker,
                 reason: str, index: int) -> None:
        """Account a lost worker, forget its stall state, respawn."""
        self.workers_lost += 1
        if self.detector is not None:
            self.detector.forget(worker.source)
        _live.emit("worker.lost", self.label, pid=worker.process.pid or 0,
                   reason=reason, index=index)
        if self._remaining() > 0:
            self.workers[position] = self._spawn()

    def _remaining(self) -> int:
        return len(self.items) - len(self.results) - len(self.failures)

    def shutdown(self) -> None:
        """Stop every worker: politely when idle, forcibly otherwise."""
        for worker in self.workers:
            if worker.current is None and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except Exception:
                    pass
        deadline = time.monotonic() + 1.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in self.workers:
            self._kill(worker)

    # -- main loop ---------------------------------------------------------

    def run(self, precomputed: Mapping[int, Any] | None) -> None:
        total = len(self.items)
        for index in sorted(precomputed or {}):
            if 0 <= index < total and index not in self.results:
                self.results[index] = precomputed[index]
                self.replays.append(index)
                _live.emit("task.replay", self.label, index=index)
                self.progress.mark(index)
        self.pending.extend(
            (index, 0) for index in range(total)
            if index not in self.results
        )
        if not self.pending:
            return
        for _ in range(min(self.worker_count, len(self.pending))):
            self.workers.append(self._spawn())
        while self._remaining() > 0:
            now = time.monotonic()
            self._promote_backoff(now)
            self._dispatch(now)
            self._collect()
            self._reap()
            self._enforce_timeout(time.monotonic())
            self._check_stalls()

    def _promote_backoff(self, now: float) -> None:
        while self.backoff and self.backoff[0][0] <= now:
            _, index, attempt = heapq.heappop(self.backoff)
            self.pending.append((index, attempt))

    def _dispatch(self, now: float) -> None:
        for worker in self.workers:
            if not self.pending:
                return
            if worker.current is not None or not worker.process.is_alive():
                continue
            index, attempt = self.pending.popleft()
            try:
                worker.conn.send(("task", index, attempt,
                                  self.items[index]))
            except Exception:
                if worker.process.is_alive():
                    # The task itself would not pickle: a caller error,
                    # same as the old pool path -- surface it.
                    raise
                self.pending.appendleft((index, attempt))
                continue
            worker.current = (index, attempt)
            worker.dispatched_at = now

    def _collect(self) -> None:
        """Wait one pass on every live worker's pipe and handle one
        message from each ready one.

        Idle workers are read too: their heartbeats would otherwise fill
        the pipe and block the worker's next reply behind the send lock.
        """
        timeout = _POLL_S
        if self.backoff:
            timeout = min(timeout,
                          max(0.0, self.backoff[0][0] - time.monotonic()))
        by_conn = {w.conn: w for w in self.workers if not w.conn.closed}
        try:
            ready = _mp_connection.wait(list(by_conn), timeout=timeout)
        except OSError:
            return
        for conn in ready:
            self._receive(by_conn[conn])

    def _receive(self, worker: _Worker) -> bool:
        """Read and handle one message from ``worker``'s pipe.

        A message that cannot be decoded fails the in-flight attempt as
        ``corrupt``.  Returns False once the pipe is dead; the reaper
        handles the process.
        """
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return False
        except Exception as exc:
            if worker.current is not None:
                index, attempt = worker.current
                worker.current = None
                self._task_failed(
                    index, attempt, "corrupt",
                    f"result for task {index} could not be decoded: "
                    f"{exc!r}",
                )
            return True
        self._handle_message(worker, message)
        return True

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "event":
            if _live.enabled():
                event = _live.get_bus().ingest(message[1])
            else:
                try:
                    event = Event.from_dict(message[1])
                except ValueError:
                    event = None
            if event is not None and self.detector is not None:
                self.detector.note(event)
        elif kind == "done":
            _, index, attempt, result, spans, records = message
            worker.current = None
            self.results[index] = result
            if spans:
                self.spans_by_index[index] = spans
            if records:
                # Adopt immediately: a sweep killed later still keeps
                # every completed point on disk for resume.
                _ledger.adopt(records)
            self.progress.mark(index)
        elif kind == "error":
            _, index, attempt, exc = message
            worker.current = None
            self._task_failed(index, attempt, "error", repr(exc), exc=exc)

    # -- recovery paths ----------------------------------------------------

    def _reap(self) -> None:
        for position, worker in enumerate(list(self.workers)):
            if worker.process.is_alive():
                continue
            # Read what it sent before dying: its reply, if it got that
            # far, and the events leading up to the failure.
            try:
                while worker.conn.poll(0) and self._receive(worker):
                    pass
            except OSError:
                pass
            current = worker.current
            worker.current = None
            index = current[0] if current else -1
            worker.conn.close()
            self._replace(position, worker, "crash", index)
            if current is not None:
                index, attempt = current
                code = worker.process.exitcode
                self._task_failed(
                    index, attempt, "crash",
                    f"worker pid {worker.process.pid} exited with code "
                    f"{code} while running task {index}",
                )

    def _enforce_timeout(self, now: float) -> None:
        if self.retry is None or self.retry.timeout_s is None:
            return
        for position, worker in enumerate(list(self.workers)):
            if worker.current is None:
                continue
            if now - worker.dispatched_at <= self.retry.timeout_s:
                continue
            index, attempt = worker.current
            worker.current = None
            self._kill(worker)
            self._replace(position, worker, "hang", index)
            self._task_failed(
                index, attempt, "hang",
                f"task {index} exceeded the {self.retry.timeout_s:g} s "
                f"per-task timeout; worker killed",
            )

    def _check_stalls(self) -> None:
        detector = self.detector
        if detector is None:
            return
        stalled = detector.check()
        if not stalled:
            return
        for report in stalled:
            _live.emit("stall", report.source,
                       detail=report.describe(), **report.to_dict())
        if self.retry is None:
            raise SweepStallError(
                f"sweep {self.label!r}: {stalled[0].describe()} "
                f"(stall timeout {detector.timeout_s:g} s; "
                f"{self.progress.done}/{self.progress.total} tasks done)",
                reports=[report.to_dict() for report in stalled],
            )
        # Escalate to retry: kill the silent worker, re-dispatch.
        by_source = {w.source: (pos, w)
                     for pos, w in enumerate(self.workers)}
        for report in stalled:
            self.stall_reports.append(report.to_dict())
            detector.forget(report.source)
            entry = by_source.get(report.source)
            if entry is None:
                continue
            position, worker = entry
            if worker.current is None:
                continue
            index, attempt = worker.current
            worker.current = None
            self._kill(worker)
            self._replace(position, worker, "stall", index)
            self._task_failed(
                index, attempt, "stall", report.describe(),
                report=report.to_dict(),
            )

    def _task_failed(self, index: int, attempt: int, kind: str,
                     error: str, exc: BaseException | None = None,
                     report: dict | None = None) -> None:
        attempts = attempt + 1
        if report is not None:
            self.failure_reports.setdefault(index, []).append(report)
        if self.retry is not None and not self.retry.exhausted(attempts):
            delay = self.retry.delay_s(attempts)
            self.retries += 1
            _live.emit("task.retry", self.label, index=index,
                       attempt=attempts, failure=kind, error=error)
            heapq.heappush(
                self.backoff, (time.monotonic() + delay, index, attempts)
            )
            return
        if self.retry is None or not self.retry.quarantine:
            if isinstance(exc, BaseException):
                raise exc
            raise SweepWorkerError(
                f"sweep {self.label!r}: task {index} failed "
                f"({kind}): {error}"
            )
        failure = TaskFailure(
            index=index, label=self.label, kind=kind, error=error,
            attempts=attempts,
            reports=tuple(self.failure_reports.get(index, ())),
        )
        self.failures[index] = failure
        _live.emit("task.quarantine", self.label, index=index,
                   attempts=attempts, failure=kind, error=error)
        self.progress.mark(index)


# ---------------------------------------------------------------------------
# Serial path.

def _run_serial(fn: Callable[[Any], Any], items: Sequence[Any],
                label: str, retry: RetryPolicy | None, chaos_spec: str | None,
                precomputed: Mapping[int, Any] | None) -> SweepReport:
    """In-process loop, publishing the same progress events as a pool.

    Honours the retry/quarantine policy (backoff via ``time.sleep``)
    but not the per-task timeout -- preempting a task needs a killable
    process.  Chaos faults that target the process level (kill-worker,
    hang-task, corrupt-result) are pool-only; only ``crash-task`` (a
    plain raise) applies here.
    """
    global _current_attempt
    chaos = (_faults.SweepChaos.parse(chaos_spec)
             if chaos_spec is not None else None)
    report = SweepReport(label=label, tasks=len(items), workers=1)
    precomputed = dict(precomputed or {})
    streaming = _live.enabled()
    progress = _Progress(label, len(items))
    results: list[Any] = []

    for index, task in enumerate(items):
        if index in precomputed:
            results.append(precomputed[index])
            report.replays.append(index)
            _live.emit("task.replay", label, index=index)
            if streaming:
                progress.mark(index)
            continue
        attempt = 0
        while True:
            if streaming:
                _live.emit("task.start", label, index=index,
                           attempt=attempt)
            _current_attempt = attempt
            task_started = time.perf_counter()
            try:
                if chaos is not None and chaos.kind == "crash-task":
                    chaos.trip_in_worker(index, attempt)
                result = fn(task)
            except Exception as exc:
                wall_s = time.perf_counter() - task_started
                if streaming:
                    _live.emit("task.done", label, index=index,
                               error=True, attempt=attempt,
                               wall_s=wall_s)
                attempts = attempt + 1
                if retry is not None and not retry.exhausted(attempts):
                    report.retries += 1
                    _live.emit("task.retry", label, index=index,
                               attempt=attempts, failure="error",
                               error=repr(exc))
                    delay = retry.delay_s(attempts)
                    if delay > 0:
                        time.sleep(delay)
                    attempt = attempts
                    continue
                if retry is None or not retry.quarantine:
                    _current_attempt = 0
                    raise
                failure = TaskFailure(
                    index=index, label=label, kind="error",
                    error=repr(exc), attempts=attempts,
                )
                report.failures.append(failure)
                results.append(failure)
                _live.emit("task.quarantine", label, index=index,
                           attempts=attempts, failure="error",
                           error=repr(exc))
                break
            results.append(result)
            if streaming:
                _live.emit("task.done", label, index=index,
                           attempt=attempt,
                           wall_s=time.perf_counter() - task_started)
            break
        _current_attempt = 0
        if streaming:
            progress.mark(index)
    report.results = results
    return report


# ---------------------------------------------------------------------------
# Entry points.

def run_sweep_report(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int = 1,
    label: str = "par.sweep",
    heartbeat_s: Any = _WATCH_DEFAULT,
    stall_timeout_s: Any = _WATCH_DEFAULT,
    retry: RetryPolicy | None = None,
    chaos: str | None = None,
    precomputed: Mapping[int, Any] | None = None,
) -> SweepReport:
    """Map ``fn`` over ``tasks`` and return a full :class:`SweepReport`.

    The fault-tolerant entry point: everything :func:`run_sweep` does,
    plus per-task retry/timeout/quarantine under ``retry``, chaos
    injection under ``chaos``, and replay of ``precomputed`` results
    (ledger-backed resume).

    Args:
        fn: picklable task function (module-level callable).
        tasks: task inputs; materialised up front for ordered dispatch.
        workers: process count; <= 1 runs serially in-process.
        label: span name the sweep is recorded under (also the ``name``
            of its task/progress events).
        heartbeat_s: worker heartbeat interval in seconds; None
            disables the beacon.  Defaults to the process-wide
            :func:`repro.obs.live.watch_config`.
        stall_timeout_s: flag a busy worker silent for this many
            seconds as stalled; with ``retry`` armed the worker is
            killed and the task re-dispatched, otherwise
            :class:`SweepStallError` is raised.  None disables
            detection.  Defaults to the process-wide watch config.
        retry: per-task :class:`~repro.robust.retry.RetryPolicy`; None
            keeps fail-fast semantics (first failure propagates).
        chaos: fault-injection spec (``kill-worker:N``, ``hang-task:N``,
            ``crash-task:N``, ``corrupt-result:N``) tripped on attempt 0
            of task N -- the selftest harness for the recovery paths.
        precomputed: ``{task index: result}`` replayed into the ordered
            results without executing (counted in ``report.replays``).

    Returns:
        A :class:`SweepReport`; ``report.results`` is the ordered
        reduce, with :class:`~repro.robust.retry.TaskFailure`
        placeholders for quarantined tasks.

    Raises:
        SweepStallError: stall detection armed without a retry policy
            and a worker went silent past the timeout.
        SweepWorkerError: a worker died or shipped an undecodable
            result and no retry policy was armed (or the policy has
            ``quarantine=False``).
    """
    if workers < 0:
        raise SweepError("workers must be non-negative")
    heartbeat_s, stall_timeout_s = _resolve_watch(
        heartbeat_s, stall_timeout_s
    )
    if chaos is not None:
        _faults.SweepChaos.parse(str(chaos))  # validate the spelling now
    items: Sequence[Any] = list(tasks)
    capture = obs.enabled()
    with obs.span(label, tasks=len(items), workers=max(workers, 1)):
        obs.count("par.sweep.runs")
        obs.count("par.sweep.tasks", len(items))
        if workers <= 1 or len(items) <= 1:
            return _run_serial(fn, items, label, retry, chaos,
                               precomputed)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # Events only stream when someone is watching: with the bus off
        # and no stall policy, workers never touch the live layer and
        # send nothing but replies.
        streaming = _live.enabled() or stall_timeout_s is not None
        supervisor = _Supervisor(
            ctx=ctx, fn=fn, items=items, worker_count=workers,
            label=label, capture=capture,
            ledger_on=_ledger.enabled(), streaming=streaming,
            heartbeat_s=heartbeat_s if streaming else None,
            stall_timeout_s=stall_timeout_s, retry=retry,
            chaos_spec=chaos,
        )
        try:
            supervisor.run(precomputed)
        finally:
            supervisor.shutdown()
        tracer = obs.get_tracer()
        for index in sorted(supervisor.spans_by_index):
            tracer.adopt(supervisor.spans_by_index[index])
        results = [
            supervisor.results[i] if i in supervisor.results
            else supervisor.failures[i]
            for i in range(len(items))
        ]
        return SweepReport(
            label=label, tasks=len(items), workers=workers,
            results=results,
            failures=[supervisor.failures[i]
                      for i in sorted(supervisor.failures)],
            retries=supervisor.retries,
            replays=sorted(supervisor.replays),
            stalls=list(supervisor.stall_reports),
            workers_lost=supervisor.workers_lost,
        )


def run_sweep(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int = 1,
    label: str = "par.sweep",
    heartbeat_s: Any = _WATCH_DEFAULT,
    stall_timeout_s: Any = _WATCH_DEFAULT,
    retry: RetryPolicy | None = None,
    chaos: str | None = None,
    precomputed: Mapping[int, Any] | None = None,
) -> list[Any]:
    """Map ``fn`` over ``tasks``, optionally across worker processes.

    Thin wrapper over :func:`run_sweep_report` returning just the
    ordered results -- ``[fn(t) for t in tasks]`` in task order
    regardless of ``workers``, with
    :class:`~repro.robust.retry.TaskFailure` placeholders at the
    indices of quarantined tasks when a ``retry`` policy is armed.
    """
    return run_sweep_report(
        fn, tasks, workers=workers, label=label, heartbeat_s=heartbeat_s,
        stall_timeout_s=stall_timeout_s, retry=retry, chaos=chaos,
        precomputed=precomputed,
    ).results
