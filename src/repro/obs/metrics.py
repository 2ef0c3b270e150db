"""Labeled metrics: counters, gauges, histograms, and their registry.

The model is deliberately Prometheus-shaped: a *metric* is a named
family; each distinct label set names a *series* inside the family
(``registry.counter("cluster.bytes").inc(64, locality="remote")``).
Unlabeled use is the common case and costs one dict lookup.

A hot path binds its label set once: ``family.labels(**kv)`` returns a
handle (:class:`BoundCounter`, :class:`BoundGauge`,
:class:`BoundHistogram`) holding the family and the sorted label key,
so each write skips rebuilding that key.  Binding creates no series,
and writes through a handle export byte-identically to the same writes
passed as keyword labels.

Aggregation happens one way: components that must be counted together
(simulated workers, engines, pipeline stages) write into one shared
registry, so a run's snapshot is read once with ``as_dict()``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Metric", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "BoundCounter", "BoundGauge", "BoundHistogram",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Metric:
    """Base class: a named family of labeled series."""

    kind = "metric"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    def series(self) -> Dict[str, Any]:
        """``{rendered-label-key: exported-value}`` for every series."""
        raise NotImplementedError

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "series": self.series()}
        if self.description:
            out["description"] = self.description
        return out

class Counter(Metric):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: Dict[LabelKey, float] = {}

    def labels(self, **labels: Any) -> "BoundCounter":
        return BoundCounter(self, _label_key(labels))

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self._inc(_label_key(labels), amount)

    def _inc(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        values = self._values
        values[key] = values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def total_where(self, **labels: Any) -> float:
        """Sum over the series whose label set includes every given
        ``label=value`` pair (an exact match per label, not a substring
        of the rendered key)."""
        want = set(_label_key(labels))
        return sum(v for key, v in self._values.items() if want.issubset(key))

    def series(self) -> Dict[str, Any]:
        return {_render_key(k): v for k, v in sorted(self._values.items())}

class Gauge(Metric):
    """A value that can move both ways (queue depth, peak watermark)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: Dict[LabelKey, float] = {}

    def labels(self, **labels: Any) -> "BoundGauge":
        return BoundGauge(self, _label_key(labels))

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        self._inc(_label_key(labels), amount)

    def _inc(self, key: LabelKey, amount: float) -> None:
        self._values[key] = self._values.get(key, 0) + amount

    def set_max(self, value: float, **labels: Any) -> None:
        """Raise the gauge to ``value`` if it is below it (peak tracking)."""
        self._set_max(_label_key(labels), value)

    def _set_max(self, key: LabelKey, value: float) -> None:
        if value > self._values.get(key, float("-inf")):
            self._values[key] = value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def values(self) -> Dict[LabelKey, float]:
        return dict(self._values)

    def series(self) -> Dict[str, Any]:
        return {_render_key(k): v for k, v in sorted(self._values.items())}

# Geometric default buckets: fine at the low end (counts of ops,
# message sizes) and wide enough for simulated-clock makespans.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    float(2**i) for i in range(0, 31, 2)
)


class _HistogramSeries:
    __slots__ = ("count", "total", "min", "max", "bucket_counts")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 overflow bucket


class Histogram(Metric):
    """Distribution of observed values with fixed upper-bound buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, description)
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def labels(self, **labels: Any) -> "BoundHistogram":
        return BoundHistogram(self, _label_key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def _observe(self, key: LabelKey, value: float) -> None:
        value = float(value)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _HistogramSeries(len(self.bounds))
        s.count += 1
        s.total += value
        if value < s.min:
            s.min = value
        if value > s.max:
            s.max = value
        s.bucket_counts[bisect_left(self.bounds, value)] += 1

    def count(self, **labels: Any) -> int:
        s = self._series.get(_label_key(labels))
        return s.count if s else 0

    def sum(self, **labels: Any) -> float:
        s = self._series.get(_label_key(labels))
        return s.total if s else 0.0

    def mean(self, **labels: Any) -> float:
        s = self._series.get(_label_key(labels))
        return s.total / s.count if s and s.count else 0.0

    def series(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, s in sorted(self._series.items()):
            out[_render_key(key)] = {
                "count": s.count,
                "sum": s.total,
                "min": s.min if s.count else None,
                "max": s.max if s.count else None,
                "buckets": {
                    ("+inf" if i >= len(self.bounds) else repr(self.bounds[i])): n
                    for i, n in enumerate(s.bucket_counts)
                    if n
                },
            }
        return out

    def as_dict(self) -> Dict[str, Any]:
        out = super().as_dict()
        out["bounds"] = list(self.bounds)
        return out

class _Bound:
    """A family plus one label key, built once (module doc)."""

    __slots__ = ("metric", "key")

    def __init__(self, metric: Metric, key: LabelKey) -> None:
        self.metric = metric
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.metric.name!r}, {_render_key(self.key)!r})"


class BoundCounter(_Bound):
    """``Counter.labels(...)``: ``inc`` without rebuilding the key."""

    metric: Counter

    def inc(self, amount: float = 1) -> None:
        self.metric._inc(self.key, amount)


class BoundGauge(_Bound):
    """``Gauge.labels(...)``: writes without rebuilding the key."""

    metric: Gauge

    def set(self, value: float) -> None:
        self.metric._values[self.key] = value

    def inc(self, amount: float = 1) -> None:
        self.metric._inc(self.key, amount)

    def set_max(self, value: float) -> None:
        self.metric._set_max(self.key, value)


class BoundHistogram(_Bound):
    """``Histogram.labels(...)``: ``observe`` without rebuilding the key."""

    metric: Histogram

    def observe(self, value: float) -> None:
        self.metric._observe(self.key, value)


class MetricsRegistry:
    """Get-or-create home for metrics, with a dict snapshot export."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, description, **kwargs)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, description, buckets=buckets
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot of every metric: ``{name: {kind, series, ...}}``."""
        return {name: m.as_dict() for name, m in sorted(self._metrics.items())}
