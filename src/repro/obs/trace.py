"""Nestable wall-time spans.

A :class:`Tracer` records a tree of named spans -- one per flow stage,
STA solve, sizing pass, and so on -- with wall time, nesting depth, and
arbitrary scalar attributes.  Spans nest through an ordinary ``with``
block (or the :meth:`Tracer.wrap` decorator) and the per-thread span
stack lives in :class:`threading.local`, so concurrent flows trace
independently while sharing one completed-span list.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.clock import MONOTONIC, ClockFn


class ObsError(ValueError):
    """Raised for invalid observability usage."""


#: Attribute values a span accepts (JSON-representable scalars).
AttrValue = Any  # int | float | str | bool

#: Live-telemetry hook: ``fn(phase, span)`` with phase ``"open"`` or
#: ``"close"``, installed by :func:`repro.obs.live.enable`.  Module
#: level (not per tracer) so enabling the bus instruments whichever
#: tracer is active, including pool workers' fresh ones; one None check
#: when no listener is installed.
_span_listener: Callable[[str, "Span"], None] | None = None


def set_span_listener(
    listener: Callable[[str, "Span"], None] | None,
) -> None:
    """Install (or with None, remove) the span open/close listener."""
    global _span_listener
    _span_listener = listener


@dataclass
class Span:
    """One timed region.

    Attributes:
        name: span label (dotted, e.g. ``"flow.asic.place"``).
        index: global start-order sequence number.
        start_s: clock reading at entry.
        end_s: clock reading at exit (None while open).
        depth: nesting depth (0 = root).
        parent: index of the enclosing span, or None for roots.
        thread: name of the thread that opened the span.
        attributes: scalar annotations attached via :meth:`set`.
        child_s: accumulated duration of direct children (for self time).
    """

    name: str
    index: int
    start_s: float
    end_s: float | None = None
    depth: int = 0
    parent: int | None = None
    thread: str = "main"
    attributes: dict[str, AttrValue] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall time inside the span (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Duration minus time spent in direct child spans."""
        return max(self.duration_s - self.child_s, 0.0)

    def set(self, **attrs: AttrValue) -> "Span":
        """Attach scalar attributes; returns the span for chaining."""
        self.attributes.update(attrs)
        return self


class _SpanContext:
    """Context manager tying one span to the tracer's thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Record the escaping exception type on the span before closing
        # it, so traces of degraded/aborted flows show which stage blew
        # up without needing the log output.
        if exc_type is not None:
            self._span.set(error=exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Thread-safe recorder of nested spans.

    Args:
        clock: monotonic time source (swap in a
            :class:`repro.obs.clock.TickClock` for deterministic tests).
    """

    def __init__(self, clock: ClockFn = MONOTONIC) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: AttrValue) -> _SpanContext:
        """Open a span; use as ``with tracer.span("stage") as sp:``."""
        if not name:
            raise ObsError("span name must be non-empty")
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                name=name,
                index=len(self._spans),
                start_s=self.clock(),
                depth=len(stack),
                parent=parent.index if parent is not None else None,
                thread=threading.current_thread().name,
            )
            self._spans.append(span)
        if attrs:
            span.set(**attrs)
        stack.append(span)
        if _span_listener is not None:
            _span_listener("open", span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ObsError(
                f"span {span.name!r} closed out of order"
            )
        stack.pop()
        span.end_s = self.clock()
        if span.parent is not None:
            with self._lock:
                self._spans[span.parent].child_s += span.duration_s
        if _span_listener is not None:
            _span_listener("close", span)

    def wrap(
        self, name: str | None = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form: times every call as a span named after it."""

        def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
            label = name or func.__qualname__

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(label):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    def adopt(self, spans: list[Span]) -> list[Span]:
        """Graft spans finished elsewhere (a pool worker) into this trace.

        Pool workers run with their own process-local tracer, so their
        spans carry indices and parent links from a different numbering
        space; without adoption they would be silently dropped.  Each
        batch is re-indexed into this tracer, its internal parent links
        remapped, and its root spans re-parented under whatever span is
        currently open on the calling thread (root depth otherwise).

        Call once per worker batch -- parent links are only meaningful
        within one worker's span list.  Returns the adopted copies.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        mapping: dict[int, Span] = {}
        adopted: list[Span] = []
        with self._lock:
            for span in sorted(spans, key=lambda s: s.index):
                if span.end_s is None:
                    continue
                new = Span(
                    name=span.name,
                    index=len(self._spans),
                    start_s=span.start_s,
                    end_s=span.end_s,
                    depth=0,
                    parent=None,
                    thread=span.thread,
                    attributes=dict(span.attributes),
                    child_s=span.child_s,
                )
                old_parent = mapping.get(span.parent) if (
                    span.parent is not None
                ) else None
                if old_parent is not None:
                    new.parent = old_parent.index
                    new.depth = old_parent.depth + 1
                elif parent is not None:
                    new.parent = parent.index
                    new.depth = parent.depth + 1
                    parent.child_s += new.duration_s
                mapping[span.index] = new
                self._spans.append(new)
                adopted.append(new)
        return adopted

    def finished(self) -> list[Span]:
        """Completed spans in start order."""
        with self._lock:
            return [s for s in self._spans if s.end_s is not None]

    def call_counts(self) -> dict[str, int]:
        """Finished-span count per name."""
        counts: dict[str, int] = {}
        for span in self.finished():
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def reset(self) -> None:
        """Drop every recorded span (open ones included)."""
        with self._lock:
            self._spans.clear()
        self._local = threading.local()
