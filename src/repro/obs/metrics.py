"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is name-keyed with optional labels (a small dict), so one
logical metric fans out into independent series per label combination --
``sim.iteration_seconds{component=compute}`` vs
``...{component=communication}``.  Snapshots are plain JSON-serializable
dicts with deterministic (sorted) key order, so two runs with the same
seeds produce byte-identical snapshots apart from duration-valued
histogram contents.

Like the tracer, the registry is **off by default**: every accessor
(``counter``/``gauge``/``histogram``) is guarded by one ``enabled``
attribute check and returns a shared no-op metric on the disabled path.

**Label cardinality is bounded.**  A label value drawn from a
per-request id would otherwise grow the registry without limit (the
classic metrics-cardinality explosion).  Each logical metric name may
fan out into at most ``max_series_per_name`` label combinations; the
first access past the bound gets the shared no-op metric back and the
``obs.metrics.dropped_series`` counter increments, so the overflow is
loud in every snapshot instead of silently eating memory.
"""

from __future__ import annotations

import bisect
import json
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "DEFAULT_MAX_SERIES", "DROPPED_SERIES"]

#: Default bound on label-series per metric name.
DEFAULT_MAX_SERIES = 64

#: Name of the overflow counter (never subject to the bound itself).
DROPPED_SERIES = "obs.metrics.dropped_series"

#: Default histogram buckets (seconds): log-ish spread from 100us to ~2min.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 120.0)


class _NullMetric:
    """Shared do-nothing metric for the disabled path (one instance)."""

    __slots__ = ()
    value = 0.0

    def inc(self, _n=1.0) -> None:
        pass

    def add(self, _delta) -> None:
        pass

    def set(self, _value) -> None:
        pass

    def set_max(self, _value) -> None:
        pass

    def observe(self, _value) -> None:
        pass


NULL_METRIC = _NullMetric()


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got {n}")
        with self._lock:
            self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-set value (with add/set-max conveniences)."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def set_max(self, value: float) -> None:
        """High-water-mark update: keep the larger of old and new."""
        with self._lock:
            if value > self.value:
                self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly edges.

    ``buckets`` are upper bounds (inclusive, like Prometheus ``le``);
    one implicit overflow bucket catches everything above the last
    bound.  ``observe`` is O(log B) via bisect.
    """

    __slots__ = ("buckets", "counts", "total", "count", "_lock")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"buckets must be sorted and unique: {buckets}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }


def _series_key(name: str, labels: dict | None) -> str:
    if not labels:
        return name
    if len(labels) == 1:  # the common case on the serving hot path
        ((label, value),) = labels.items()
        return f"{name}{{{label}={value}}}"
    body = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{body}}}"


class MetricsRegistry:
    """Process-wide home for named metric series.

    ``counter``/``gauge``/``histogram`` get-or-create a series; asking
    for an existing name with a different metric type raises.  All
    methods are thread-safe.
    """

    def __init__(self, max_series_per_name: int = DEFAULT_MAX_SERIES):
        if max_series_per_name < 1:
            raise ValueError(f"max_series_per_name must be >= 1, got "
                             f"{max_series_per_name}")
        self.enabled = False
        self.max_series_per_name = max_series_per_name
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._series_per_name: dict[str, int] = {}
        self._dropped = Counter()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._metrics = {}
            self._series_per_name = {}
            self._dropped = Counter()

    @property
    def dropped_series(self) -> int:
        """Series refused by the per-name cardinality bound so far."""
        return int(self._dropped.value)

    # -- accessors ------------------------------------------------------
    def _get_or_create(self, name: str, labels: dict | None, factory,
                       kind: type):
        key = _series_key(name, labels)
        # Lock-free fast path for existing series: a dict read is atomic
        # and a registered series is never replaced (reset swaps in a
        # fresh dict wholesale).
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if (self._series_per_name.get(name, 0)
                            >= self.max_series_per_name):
                        # Cardinality bound hit: refuse the new series
                        # but count the refusal, so unbounded
                        # per-request labels show up in snapshots
                        # instead of in memory graphs.
                        self._dropped.inc()
                        return NULL_METRIC
                    metric = factory()
                    self._metrics[key] = metric
                    self._series_per_name[name] = (
                        self._series_per_name.get(name, 0) + 1)
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        if not self.enabled:
            return NULL_METRIC
        return self._get_or_create(name, labels, Counter, Counter)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        if not self.enabled:
            return NULL_METRIC
        return self._get_or_create(name, labels, Gauge, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  labels: dict | None = None) -> Histogram:
        if not self.enabled:
            return NULL_METRIC
        return self._get_or_create(name, labels,
                                   lambda: Histogram(buckets), Histogram)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable snapshot grouped by metric type.

        When the cardinality bound has refused any series, the
        ``obs.metrics.dropped_series`` counter appears among the
        counters so the overflow is visible in every export.
        """
        with self._lock:
            items = sorted(self._metrics.items())
            dropped = self._dropped.value
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        if dropped:
            out["counters"][DROPPED_SERIES] = dropped
        for key, metric in items:
            if isinstance(metric, Counter):
                out["counters"][key] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.snapshot()
            else:
                out["histograms"][key] = metric.snapshot()
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Human-readable one-line-per-series dump (sorted)."""
        snap = self.snapshot()
        lines: list[str] = []
        for key, value in snap["counters"].items():
            lines.append(f"counter   {key} = {value:g}")
        for key, value in snap["gauges"].items():
            lines.append(f"gauge     {key} = {value:g}")
        for key, hist in snap["histograms"].items():
            lines.append(f"histogram {key} count={hist['count']} "
                         f"sum={hist['sum']:.6g} mean={hist['mean']:.6g}")
        return "\n".join(lines)
