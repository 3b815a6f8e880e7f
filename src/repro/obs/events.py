"""Telemetry event model: the records the live bus streams.

One :class:`Event` is one thing that just happened -- a span opened or
closed, a stage finished, a worker heartbeat, a sweep task started,
finished or was retried.  Events are deliberately small and
JSON-scalar only, because they cross process boundaries (pool
workers send them down their task pipe) and land in JSONL files that
``repro-gap top`` tails.

The bus (:mod:`repro.obs.live`) assigns each event a process-wide
monotonic sequence number at publish time; an event forwarded from a
worker keeps its worker-side sequence in ``source_seq`` and gets a
fresh parent-side ``seq`` when it is ingested, so one stream stays
totally ordered no matter how many processes feed it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

#: The event kinds the live layer publishes.  Consumers must tolerate
#: unknown kinds (newer producers), so this is documentation and a
#: validation aid, not a closed enum.
EVENT_KINDS = (
    "span.open",      # a tracer span opened (name, depth, thread)
    "span.close",     # a tracer span closed (duration_ms, error?)
    "stage.start",    # a flow-engine stage began (flow, stage, index, total)
    "stage.done",     # a stage's outcome: its StageRecord fields + flow
    "heartbeat",      # a worker's liveness beacon (busy_s, task)
    "task.start",     # a sweep task began in a worker (index, attempt)
    "task.done",      # a sweep task finished (index, attempt, wall_s)
    "task.retry",     # a failed task was re-queued (index, attempt, failure)
    "task.quarantine",  # a task exhausted its retries (index, attempts)
    "task.replay",    # a task's result was replayed, not run (index)
    "worker.lost",    # a pool worker died or was killed (pid, reason)
    "sweep.progress", # parent-side progress roll-up (done, total, eta_s)
    "stall",          # stall detector diagnostic (source, silent_s)
    "log",            # free-form annotation
)


class EventError(ValueError):
    """Raised for malformed event payloads."""


@dataclass
class Event:
    """One telemetry event.

    Attributes:
        kind: event flavour (see :data:`EVENT_KINDS`).
        name: subject label (span name, stage path, sweep label, ...).
        seq: bus-assigned monotonic sequence number (unique and strictly
            increasing within the publishing process's stream).
        ts: bus clock reading at publish time (seconds, monotonic).
        source: origin stream -- ``"main"`` in the parent process,
            ``"worker-<pid>"`` inside a pool worker.
        source_seq: the sequence number the event carried in its origin
            stream; equals ``seq`` unless the event was forwarded across
            a process boundary and re-sequenced.
        attrs: JSON-scalar annotations (values: int/float/str/bool).
    """

    kind: str
    name: str
    seq: int = 0
    ts: float = 0.0
    source: str = "main"
    source_seq: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        record: dict = {
            "kind": self.kind,
            "name": self.name,
            "seq": self.seq,
            "ts": round(float(self.ts), 9),
            "source": self.source,
        }
        if self.source_seq != self.seq:
            record["source_seq"] = self.source_seq
        if self.attrs:
            record["attrs"] = {
                key: (round(val, 9) if isinstance(val, float) else val)
                for key, val in sorted(self.attrs.items())
            }
        return record

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        if not isinstance(payload, dict):
            raise EventError(
                f"event payload must be a dict, got "
                f"{type(payload).__name__}"
            )
        kind = payload.get("kind")
        if not kind or not isinstance(kind, str):
            raise EventError(f"event has no kind: {payload!r}")
        seq = int(payload.get("seq", 0))
        return cls(
            kind=kind,
            name=str(payload.get("name", "")),
            seq=seq,
            ts=float(payload.get("ts", 0.0)),
            source=str(payload.get("source", "main")),
            source_seq=int(payload.get("source_seq", seq)),
            attrs=dict(payload.get("attrs") or {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def parse_event(line: str) -> Event:
    """Parse one JSONL line into an :class:`Event`."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise EventError(f"bad event line {line!r}: {exc}") from exc
    return Event.from_dict(payload)


def read_events(path: str, skip_bad: bool = True) -> Iterator[Event]:
    """Yield events from a JSONL stream file, in file order.

    Args:
        path: the JSONL file an :class:`~repro.obs.live.EventBus` sink
            wrote (or is still writing -- a trailing partial line is
            treated as not-yet-written, never an error).
        skip_bad: silently drop malformed lines instead of raising; the
            stream is an observability aid, one bad line must not sink
            the reader.
    """
    with open(path) as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # mid-write tail of a live stream
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_event(line)
            except EventError:
                if not skip_bad:
                    raise
