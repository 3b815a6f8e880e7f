"""Counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` holds named metrics; each metric keeps one
series per distinct label set (bounded -- runaway label cardinality is a
bug, so it raises instead of silently growing).  Histograms store raw
observations, which is exact and cheap at this system's volumes
(thousands of observations per run, not millions per second).
"""

from __future__ import annotations

import math
import threading
import warnings

from repro.obs.trace import ObsError

#: A normalised label set: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Default bound on distinct label sets per metric.
DEFAULT_MAX_SERIES = 64


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared bookkeeping: name, help text, per-label-set series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "",
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.name = name
        self.help = help
        self.max_series = max_series
        self._series: dict[LabelKey, object] = {}
        self._lock = threading.Lock()

    def _series_for(self, labels: dict[str, str], factory) -> object:
        """Get or create the series for a label set, under the lock."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    raise ObsError(
                        f"metric {self.name!r} exceeded {self.max_series} "
                        f"label sets; label cardinality is unbounded"
                    )
                series = self._series[key] = factory()
            return series

    def series(self) -> dict[LabelKey, object]:
        """Snapshot of every label set's series."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if value < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            current = self._series.get(key)
            if current is None:
                if len(self._series) >= self.max_series:
                    raise ObsError(
                        f"metric {self.name!r} exceeded {self.max_series} "
                        f"label sets; label cardinality is unbounded"
                    )
                current = 0.0
            self._series[key] = float(current) + value

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class Gauge(_Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            if key not in self._series and (
                len(self._series) >= self.max_series
            ):
                raise ObsError(
                    f"metric {self.name!r} exceeded {self.max_series} "
                    f"label sets; label cardinality is unbounded"
                )
            self._series[key] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            key = _label_key(labels)
            if key not in self._series:
                raise ObsError(
                    f"gauge {self.name!r} has no value for {labels}"
                )
            return float(self._series[key])


class Histogram(_Metric):
    """Exact distribution of observed values."""

    kind = "histogram"

    def observe(self, value: float, **labels: str) -> None:
        series = self._series_for(labels, list)
        series.append(float(value))

    def values(self, **labels: str) -> list[float]:
        with self._lock:
            return list(self._series.get(_label_key(labels)) or [])

    def count(self, **labels: str) -> int:
        return len(self.values(**labels))

    def total(self, **labels: str) -> float:
        return sum(self.values(**labels))

    def mean(self, **labels: str) -> float:
        values = self.values(**labels)
        return sum(values) / len(values) if values else 0.0

    def percentile(self, pct: float, **labels: str) -> float:
        """Linearly interpolated percentile of the raw observations.

        An empty series has no percentiles: the result is NaN with a
        :class:`RuntimeWarning` (not an exception -- a dashboard asking
        for p95 of a series that has not observed yet is a display
        problem, not a programming error).  A single-sample series
        returns that sample for every percentile.
        """
        if not 0.0 <= pct <= 100.0:
            raise ObsError("percentile must be within [0, 100]")
        values = sorted(self.values(**labels))
        if not values:
            warnings.warn(
                f"histogram {self.name!r} has no observations for "
                f"{labels}; percentile({pct:g}) is NaN",
                RuntimeWarning,
                stacklevel=2,
            )
            return math.nan
        if len(values) == 1:
            return values[0]
        rank = pct / 100.0 * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac


class MetricsRegistry:
    """Get-or-create home of every metric.

    Re-requesting a name returns the existing metric; requesting it as a
    different kind raises, because that is always a naming bug.
    """

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.max_series = max_series
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type, help: str) -> _Metric:
        if not name:
            raise ObsError("metric name must be non-empty")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name=name, help=help, max_series=self.max_series)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help)

    def all_metrics(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
