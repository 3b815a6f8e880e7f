"""Live telemetry: the streaming event bus and its consumers.

Where :mod:`repro.obs.trace` answers "what happened" after a run, this
module answers "what is happening" during one.  An :class:`EventBus`
carries :class:`~repro.obs.events.Event` records from producers --
the tracer's span hooks, the flow engine's stage callbacks, pool
workers' heartbeats -- to any number of consumers:

* bounded in-process subscriptions (:class:`Subscription`) and callback
  subscribers (the dashboard);
* a JSONL sink file that ``repro-gap top`` can attach to from another
  terminal;
* a cross-process *forward* hook the sweep runner points at the
  worker's task pipe, so pool-worker events stream to the parent as
  they happen, each ahead of its task's reply.

Sequence numbers are assigned at publish time under the bus lock, so
one process's stream is strictly ordered even when several flow threads
publish concurrently; events ingested from workers are re-sequenced
into the parent stream and keep their origin order in ``source_seq``.

Everything here is off by default and costs one flag check when off --
the same contract as :mod:`repro.obs.instrument`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

from repro.obs.clock import MONOTONIC, ClockFn
from repro.obs.events import Event

#: Default bound on events buffered per subscription.
DEFAULT_SUBSCRIPTION_MAXLEN = 4096

#: Default worker heartbeat interval (seconds).
DEFAULT_HEARTBEAT_S = 1.0


class Subscription:
    """A bounded event buffer fed by the bus.

    Oldest events are dropped once ``maxlen`` is reached -- a slow
    consumer degrades its own view, never the publisher -- and the drop
    count is kept so the consumer knows its view has holes.
    """

    def __init__(self, maxlen: int = DEFAULT_SUBSCRIPTION_MAXLEN) -> None:
        self._events: deque[Event] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self.dropped = 0

    def _offer(self, event: Event) -> None:
        with self._lock:
            if (self._events.maxlen is not None
                    and len(self._events) == self._events.maxlen):
                self.dropped += 1
            self._events.append(event)

    def drain(self) -> list[Event]:
        """Return and clear the buffered events, oldest first."""
        with self._lock:
            drained = list(self._events)
            self._events.clear()
        return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class EventBus:
    """Thread-safe pub/sub hub with monotonic sequencing and sinks.

    Args:
        source: stream label stamped on locally published events
            (``"main"`` in the parent, ``"worker-<pid>"`` in workers).
        clock: monotonic time source (swap in a
            :class:`~repro.obs.clock.TickClock` for deterministic
            tests).
    """

    def __init__(self, source: str = "main",
                 clock: ClockFn = MONOTONIC) -> None:
        self.source = source
        self.clock = clock
        self._lock = threading.RLock()
        self._seq = 0
        self._published = 0
        self._by_kind: dict[str, int] = {}
        self._subscriptions: list[Subscription] = []
        self._callbacks: list[Callable[[Event], None]] = []
        self._forward: Callable[[dict], None] | None = None
        self._sink: TextIO | None = None
        self._sink_path: str | None = None

    # -- producer side ----------------------------------------------------

    def publish(self, kind: str, name: str, **attrs: Any) -> Event:
        """Create, sequence, and deliver one event."""
        with self._lock:
            self._seq += 1
            event = Event(
                kind=kind, name=name, seq=self._seq, ts=self.clock(),
                source=self.source, source_seq=self._seq,
                attrs=attrs,
            )
            self._deliver(event)
        return event

    def ingest(self, payload: dict) -> Event | None:
        """Re-sequence and deliver an event from another process.

        The event keeps its origin ``source`` and ``source_seq``;
        ``seq`` is reassigned so the merged stream stays strictly
        monotonic.  Malformed payloads are dropped (returns None).
        """
        try:
            event = Event.from_dict(payload)
        except ValueError:
            return None
        with self._lock:
            self._seq += 1
            event.seq = self._seq
            self._deliver(event)
        return event

    def _deliver(self, event: Event) -> None:
        self._published += 1
        self._by_kind[event.kind] = self._by_kind.get(event.kind, 0) + 1
        for subscription in self._subscriptions:
            subscription._offer(event)
        for callback in self._callbacks:
            try:
                callback(event)
            except Exception:
                # A broken consumer must never take the producer down.
                pass
        if self._forward is not None:
            try:
                self._forward(event.to_dict())
            except Exception:
                self._forward = None
        if self._sink is not None:
            try:
                self._sink.write(event.to_json() + "\n")
                self._sink.flush()
            except OSError:
                self._close_sink()

    # -- consumer side ----------------------------------------------------

    def subscribe(
        self, maxlen: int = DEFAULT_SUBSCRIPTION_MAXLEN
    ) -> Subscription:
        """Register and return a bounded pull-style subscription."""
        subscription = Subscription(maxlen=maxlen)
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Register a push-style consumer (called inline at publish)."""
        with self._lock:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    def set_forward(self, forward: Callable[[dict], None] | None) -> None:
        """Point the cross-process forward hook at a pipe ``send``."""
        with self._lock:
            self._forward = forward

    def attach_jsonl(self, path: str) -> None:
        """Append every subsequent event to ``path`` as one JSON line."""
        with self._lock:
            self._close_sink()
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._sink = open(path, "a")
            self._sink_path = path

    def detach_jsonl(self) -> None:
        with self._lock:
            self._close_sink()

    def _close_sink(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None
        self._sink_path = None

    @property
    def sink_path(self) -> str | None:
        return self._sink_path

    def stats(self) -> dict:
        """Publish counts: total, per kind, subscription drops."""
        with self._lock:
            return {
                "published": self._published,
                "by_kind": dict(sorted(self._by_kind.items())),
                "dropped": sum(s.dropped for s in self._subscriptions),
                "subscriptions": len(self._subscriptions),
            }


# ---------------------------------------------------------------------------
# Module-level switch and the hook into the tracer.

_enabled = False
_bus = EventBus()


def _span_listener(phase: str, span: Any) -> None:
    """Tracer hook: every span open/close becomes a bus event."""
    if phase == "open":
        _bus.publish("span.open", span.name, depth=span.depth,
                     thread=span.thread)
    else:
        attrs: dict = {"duration_ms": span.duration_s * 1e3}
        error = span.attributes.get("error")
        if error is not None:
            attrs["error"] = error
        if span.attributes.get("cached"):
            attrs["cached"] = True
        _bus.publish("span.close", span.name, **attrs)


def enable(jsonl: str | None = None, source: str | None = None,
           clock: ClockFn | None = None, fresh: bool = True) -> EventBus:
    """Turn the live bus on; returns the process bus.

    Args:
        jsonl: optional JSONL sink path (``repro-gap top`` attaches to
            this file).
        source: stream label override (workers pass
            ``"worker-<pid>"``).
        clock: time source override for deterministic tests.
        fresh: start from a new bus (drops subscriptions and counters).
    """
    global _enabled, _bus
    from repro.obs import trace as _trace

    if fresh:
        _bus.detach_jsonl()
        _bus = EventBus(
            source=source or _bus.source,
            clock=clock or MONOTONIC,
        )
    else:
        if source is not None:
            _bus.source = source
        if clock is not None:
            _bus.clock = clock
    if jsonl is not None:
        _bus.attach_jsonl(jsonl)
    _trace.set_span_listener(_span_listener)
    _enabled = True
    return _bus


def disable() -> None:
    """Turn the live bus off and unhook the tracer listener."""
    global _enabled
    from repro.obs import trace as _trace

    _trace.set_span_listener(None)
    _bus.detach_jsonl()
    _bus.set_forward(None)
    _enabled = False


def enabled() -> bool:
    """Whether :func:`emit` publishes anything."""
    return _enabled


def get_bus() -> EventBus:
    """The process-global bus (valid whether or not it is enabled)."""
    return _bus


def emit(kind: str, name: str, **attrs: Any) -> None:
    """Publish an event, or do nothing when the bus is off."""
    if _enabled:
        _bus.publish(kind, name, **attrs)


def sink_path() -> str | None:
    """The active JSONL sink path, if a sink is attached."""
    return _bus.sink_path if _enabled else None


# ---------------------------------------------------------------------------
# Watch configuration: heartbeats and stall detection defaults.

@dataclass
class WatchConfig:
    """Heartbeat/stall policy the sweep runner reads its defaults from.

    Attributes:
        heartbeat_s: worker heartbeat interval; None disables the
            beacon thread.
        stall_timeout_s: how long a busy worker may stay silent before
            the stall detector fires; None disables detection.
    """

    heartbeat_s: float | None = DEFAULT_HEARTBEAT_S
    stall_timeout_s: float | None = None


_watch = WatchConfig()


def configure_watch(heartbeat_s: float | None = DEFAULT_HEARTBEAT_S,
                    stall_timeout_s: float | None = None) -> None:
    """Set the process-wide heartbeat/stall defaults."""
    global _watch
    _watch = WatchConfig(heartbeat_s=heartbeat_s,
                         stall_timeout_s=stall_timeout_s)


def watch_config() -> WatchConfig:
    return _watch


# ---------------------------------------------------------------------------
# Worker-side heartbeat beacon.

class Heartbeat:
    """Background thread publishing periodic liveness events.

    Runs inside pool workers: even while the worker's main thread is
    deep in a solver, the beacon keeps publishing ``heartbeat`` events
    carrying which task is being worked and for how long -- the signal
    the parent's stall detector distinguishes "busy" from "wedged" with.
    """

    def __init__(self, bus: EventBus, interval_s: float) -> None:
        if not interval_s > 0:
            raise ValueError("heartbeat interval must be positive")
        self.bus = bus
        self.interval_s = max(float(interval_s), 0.01)
        self._task: Any = None
        self._task_started: float | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def set_task(self, task: Any) -> None:
        """Record the task label the beacon reports (None = idle)."""
        with self._lock:
            self._task = task
            self._task_started = (time.monotonic()
                                  if task is not None else None)

    def _beat(self) -> None:
        with self._lock:
            task, started = self._task, self._task_started
        attrs: dict = {}
        if task is not None:
            attrs["task"] = str(task)
        if started is not None:
            attrs["busy_s"] = time.monotonic() - started
        self.bus.publish("heartbeat", self.bus.source, **attrs)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._beat()

    def start(self) -> "Heartbeat":
        self._thread = threading.Thread(
            target=self._run, name="obs-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)


# ---------------------------------------------------------------------------
# Parent-side stall detection.

@dataclass(frozen=True)
class StallReport:
    """One stalled worker, as the detector saw it.

    Attributes:
        source: the silent stream (``"worker-<pid>"``).
        silent_s: seconds since the stream's last event arrived.
        task: last task label the stream reported, if any.
        last_kind: kind of the last event seen from the stream.
    """

    source: str
    silent_s: float
    task: str = ""
    last_kind: str = ""

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "silent_s": round(self.silent_s, 3),
            "task": self.task,
            "last_kind": self.last_kind,
        }

    def describe(self) -> str:
        task = f" (task {self.task})" if self.task else ""
        return (f"worker {self.source} silent for "
                f"{self.silent_s:.2f} s{task}; last event "
                f"{self.last_kind or '?'}")


class StallDetector:
    """Tracks per-source last-event times and flags silent workers.

    The sweep runner feeds it every ingested worker event
    (:meth:`note`) and polls :meth:`check` between pipe reads; a
    source that reported a task start (or a heartbeat) and then went
    silent past the timeout is reported as stalled.  Detection is
    arrival-time based -- worker clocks never enter into it.
    """

    def __init__(self, timeout_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not timeout_s > 0:
            raise ValueError("stall timeout must be positive")
        self.timeout_s = float(timeout_s)
        self.clock = clock
        self._last_seen: dict[str, float] = {}
        self._last_kind: dict[str, str] = {}
        self._task: dict[str, str] = {}
        self._busy: dict[str, bool] = {}

    def note(self, event: Event) -> None:
        """Record one ingested event's arrival."""
        source = event.source
        self._last_seen[source] = self.clock()
        self._last_kind[source] = event.kind
        if event.kind == "task.start":
            self._busy[source] = True
            self._task[source] = str(event.attrs.get("index", ""))
        elif event.kind == "task.done":
            self._busy[source] = False
            self._task.pop(source, None)
        elif event.kind == "heartbeat" and "task" in event.attrs:
            self._task[source] = str(event.attrs["task"])

    def forget(self, source: str) -> None:
        """Drop a source from tracking (e.g. a worker the sweep
        supervisor killed and replaced -- its silence is expected)."""
        self._last_seen.pop(source, None)
        self._last_kind.pop(source, None)
        self._task.pop(source, None)
        self._busy.pop(source, None)

    def check(self) -> list[StallReport]:
        """Busy sources silent past the timeout, worst first."""
        now = self.clock()
        stalled = [
            StallReport(
                source=source,
                silent_s=now - seen,
                task=self._task.get(source, ""),
                last_kind=self._last_kind.get(source, ""),
            )
            for source, seen in self._last_seen.items()
            if self._busy.get(source) and now - seen > self.timeout_s
        ]
        stalled.sort(key=lambda r: r.silent_s, reverse=True)
        return stalled


# ---------------------------------------------------------------------------
# Terminal dashboard.

@dataclass
class _Lane:
    """Dashboard state of one event stream (worker or main)."""

    last_kind: str = ""
    last_name: str = ""
    last_seen: float = 0.0
    task: str = ""
    busy_s: float = 0.0
    done: int = 0


@dataclass
class _FlowProgress:
    """Dashboard state of one in-flight flow run."""

    total: int = 0
    done: int = 0
    current: str = ""
    cached: int = 0
    statuses: dict = field(default_factory=dict)


@dataclass
class _SweepProgress:
    """Dashboard state of one sweep label's task progress.

    Driven by ``sweep.progress`` roll-ups alone (not raw ``task.done``
    counts): sweeps nest -- a pool sweep's flow points each run their
    own inner serial sweeps -- and only the roll-up knows which sweep a
    completion belongs to and what its current total is.
    """

    done: int = 0
    total: int = 0
    eta_s: float | None = None


class Dashboard:
    """Renders a live terminal view of an event stream.

    Consumes bus events (as a callback, or fed from a JSONL file by
    ``repro-gap top``) and maintains: per-flow stage progress bars,
    stage-cache hit rate, per-worker lanes, sweep progress with ETA,
    and the most recent stall diagnostics.  On a TTY the frame is
    redrawn in place with ANSI cursor movement; on anything else
    (``--live`` redirected to a file) compact progress lines are
    appended instead, one per refresh, so the output stays a readable
    log.
    """

    BAR_WIDTH = 24

    def __init__(self, stream: TextIO | None = None,
                 refresh_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.refresh_s = refresh_s
        self.clock = clock
        self._lock = threading.Lock()
        self._lanes: dict[str, _Lane] = {}
        self._flows: dict[str, _FlowProgress] = {}
        self._sweeps: dict[str, _SweepProgress] = {}
        self._events = 0
        self._cache_hits = 0
        self._stage_runs = 0
        self._retries = 0
        self._quarantined = 0
        self._replays = 0
        self._workers_lost = 0
        self._stalls: deque[str] = deque(maxlen=4)
        self._started = clock()
        self._last_paint = 0.0
        self._frame_lines = 0
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())

    # -- state folding -----------------------------------------------------

    def __call__(self, event: Event) -> None:
        self.feed(event)

    def feed(self, event: Event, paint: bool = True) -> None:
        """Fold one event into the view (and maybe repaint)."""
        with self._lock:
            self._events += 1
            lane = self._lanes.setdefault(event.source, _Lane())
            lane.last_kind = event.kind
            lane.last_name = event.name
            lane.last_seen = self.clock()
            attrs = event.attrs
            if event.kind == "stage.start":
                flow = str(attrs.get("flow", event.name))
                progress = self._flows.setdefault(flow, _FlowProgress())
                progress.total = max(progress.total,
                                     int(attrs.get("total", 0)))
                progress.current = str(attrs.get("stage", ""))
                self._stage_runs += 1
            elif event.kind == "stage.done":
                flow = str(attrs.get("flow", event.name))
                progress = self._flows.setdefault(flow, _FlowProgress())
                stage = str(attrs.get("stage", ""))
                progress.statuses[stage] = str(attrs.get("status", "ok"))
                progress.done += 1
                progress.total = max(progress.total, progress.done)
                if progress.current == stage:
                    progress.current = ""
                if attrs.get("cache_hit"):
                    progress.cached += 1
                if attrs.get("status") == "cached":
                    self._cache_hits += 1
            elif event.kind == "heartbeat":
                lane.task = str(attrs.get("task", lane.task))
                lane.busy_s = float(attrs.get("busy_s", 0.0))
            elif event.kind == "task.start":
                lane.task = str(attrs.get("index", ""))
            elif event.kind == "task.done":
                lane.task = ""
                lane.busy_s = 0.0
                lane.done += 1
            elif event.kind == "sweep.progress":
                sweep = self._sweeps.setdefault(event.name,
                                                _SweepProgress())
                sweep.done = int(attrs.get("done", sweep.done))
                sweep.total = int(attrs.get("total", sweep.total))
                eta = attrs.get("eta_s")
                sweep.eta_s = float(eta) if eta is not None else None
            elif event.kind == "stall":
                self._stalls.append(str(attrs.get("detail", event.name)))
            elif event.kind == "task.retry":
                self._retries += 1
            elif event.kind == "task.quarantine":
                self._quarantined += 1
            elif event.kind == "task.replay":
                self._replays += 1
            elif event.kind == "worker.lost":
                self._workers_lost += 1
        if paint:
            self.maybe_paint()

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _bar(done: int, total: int, width: int) -> str:
        if total <= 0:
            return "-" * width
        filled = int(round(width * min(done, total) / total))
        return "#" * filled + "." * (width - filled)

    def render(self) -> str:
        """The current frame as text (no painting)."""
        with self._lock:
            elapsed = self.clock() - self._started
            lines = [
                f"live telemetry  events={self._events}  "
                f"elapsed={elapsed:6.1f} s"
            ]
            for flow in sorted(self._flows):
                p = self._flows[flow]
                bar = self._bar(p.done, p.total, self.BAR_WIDTH)
                current = f"  @{p.current}" if p.current else ""
                cached = f"  {p.cached} cached" if p.cached else ""
                lines.append(
                    f"  flow {flow:<10.10s} |{bar}| "
                    f"{p.done}/{p.total or '?'}{current}{cached}"
                )
            for name in sorted(self._sweeps):
                sweep = self._sweeps[name]
                bar = self._bar(sweep.done, sweep.total, self.BAR_WIDTH)
                eta = (f"  eta {sweep.eta_s:6.1f} s"
                       if sweep.eta_s is not None else "")
                # Sweep labels are dotted paths; the tail is the
                # distinctive part ("...montecarlo.sweep").
                label = name if len(name) <= 14 else "…" + name[-13:]
                lines.append(
                    f"  sweep {label:<14.14s} |{bar}| "
                    f"{sweep.done}/{sweep.total or '?'}{eta}"
                )
            if self._stage_runs or self._cache_hits:
                total = self._stage_runs
                rate = (self._cache_hits / total) if total else 0.0
                lines.append(
                    f"  stage cache: {self._cache_hits} hits"
                    f" / {total} stages ({rate:.0%})"
                )
            workers = [s for s in sorted(self._lanes)
                       if s.startswith("worker")]
            for source in workers:
                lane = self._lanes[source]
                task = f" task {lane.task}" if lane.task else " idle"
                busy = (f" busy {lane.busy_s:5.1f} s"
                        if lane.busy_s else "")
                lines.append(
                    f"  {source:<14.14s} done={lane.done:<4d}"
                    f"{task}{busy}  [{lane.last_kind}]"
                )
            if (self._retries or self._quarantined or self._replays
                    or self._workers_lost):
                lines.append(
                    f"  recovery: {self._retries} retries, "
                    f"{self._quarantined} quarantined, "
                    f"{self._replays} replayed, "
                    f"{self._workers_lost} workers lost"
                )
            for stall in self._stalls:
                lines.append(f"  STALL: {stall}")
            return "\n".join(lines)

    def maybe_paint(self) -> None:
        now = self.clock()
        if now - self._last_paint < self.refresh_s:
            return
        self.paint()

    def paint(self) -> None:
        """Write one frame: in-place on a TTY, appended otherwise."""
        frame = self.render()
        self._last_paint = self.clock()
        try:
            if self._isatty:
                if self._frame_lines:
                    self.stream.write(f"\x1b[{self._frame_lines}F\x1b[J")
                self.stream.write(frame + "\n")
                self._frame_lines = frame.count("\n") + 1
            else:
                # Log mode: one compact line per refresh.
                summary = frame.splitlines()[0]
                done = sum(s.done for s in self._sweeps.values())
                total = sum(s.total for s in self._sweeps.values())
                if total:
                    summary += f"  tasks {done}/{total}"
                self.stream.write(summary + "\n")
            self.stream.flush()
        except OSError:
            pass

    def final(self) -> str:
        """Full closing frame (always the multi-line view)."""
        return self.render()
