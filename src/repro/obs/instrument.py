"""The global observability switch and instrumentation entry points.

Hot paths call the module-level helpers (:func:`span`, :func:`count`,
:func:`observe`, :func:`gauge`) unconditionally; each one is a single
flag check plus a no-op when observability is disabled, so the
instrumented code pays essentially nothing by default.  ``enable()``
swaps in a live :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` for the process.

Typical use (what ``repro-gap --profile`` does)::

    from repro import obs

    obs.enable()
    run_asic_flow()
    print(obs.render_report())
    obs.disable()
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.obs.clock import MONOTONIC, ClockFn
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

_enabled = False
_tracer = Tracer()
_metrics = MetricsRegistry()


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


def enable(clock: ClockFn | None = None, fresh: bool = True) -> None:
    """Turn instrumentation on.

    Args:
        clock: optional time source override (tests pass a
            :class:`~repro.obs.clock.TickClock`).
        fresh: drop previously recorded spans/metrics first.
    """
    global _enabled
    if fresh:
        reset()
    if clock is not None:
        _tracer.clock = clock
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data stays readable)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether the helpers are live."""
    return _enabled


def reset() -> None:
    """Drop all recorded spans and metrics; keep the enable state."""
    _tracer.reset()
    _tracer.clock = MONOTONIC
    _metrics.reset()


def get_tracer() -> Tracer:
    """The process-global tracer (read it to export traces)."""
    return _tracer


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def span(name: str, **attrs: Any):
    """Open a trace span, or a shared no-op when disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator: span per call, checked at call time (not import time)."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            with _tracer.span(label):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def count(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment a counter (no-op when disabled)."""
    if _enabled:
        _metrics.counter(name).inc(value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation (no-op when disabled)."""
    if _enabled:
        _metrics.histogram(name).observe(value, **labels)


def gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge (no-op when disabled)."""
    if _enabled:
        _metrics.gauge(name).set(value, **labels)


def render_report() -> str:
    """The human profile table for whatever has been recorded."""
    from repro.obs.export import report

    return report(_tracer, _metrics)
