"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per telemetry session accumulates the
numeric side of observability — how many requests, how degraded, how
slow — and exports it two ways:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-ready dict, written as
  ``metrics.json`` into the telemetry directory when the session closes;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (version 0.0.4), so a scrape endpoint or ``repro metrics
  --prometheus`` can feed a real monitoring stack.

Subsystems that keep their own counters copy them into gauges (the conv
workspace cache: :func:`repro.obs.session.set_workspace_gauges`); stage
timings feed ``trace.<name>_s`` histograms directly
(:mod:`repro.obs.trace`).

All mutating operations take the registry lock; instruments themselves
are lock-free on read.  Histograms use *fixed* bucket upper bounds
chosen at creation — cumulative counts are derived at export time, the
hot-path ``observe`` is one ``searchsorted``-style scan.
"""

from __future__ import annotations

import bisect
import math
import os
import re
import threading

from ..runtime.checkpoint import atomic_write_json

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "prometheus_from_snapshot",
    "METRICS_FILE",
]

#: File name of the metrics snapshot inside a telemetry directory.
METRICS_FILE = "metrics.json"

#: Default per-sample serving latency buckets (seconds): sub-ms to 10 s.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

_NAME = re.compile(r"^[a-z][a-z0-9_.]*$")


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be >= 0) to the total."""
        if n < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are strictly increasing upper bounds; every observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit ``+Inf`` overflow bucket.  Bucket *edges are inclusive on
    the upper side* (Prometheus ``le`` semantics): observing exactly a
    bound counts into that bound's bucket.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_n", "_lock")

    def __init__(self, name: str, buckets: tuple[float, ...] | list[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase, got {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = 0.0
        self._n = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> int:
        """Record one value; returns the index of the bucket it fell in."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._n += 1
        return index

    def bucket_label(self, value: float) -> str:
        """Human label of the bucket ``value`` would land in (``le=<bound>``)."""
        index = bisect.bisect_left(self.buckets, value)
        bound = "+Inf" if index == len(self.buckets) else repr(self.buckets[index])
        return f"le={bound}"

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return self._sum

    def to_dict(self) -> dict:
        """JSON-ready form: bounds, per-bucket (non-cumulative) counts, sum, count."""
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._n,
            }


class MetricsRegistry:
    """Process-local collection of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME.match(name):
            raise ValueError(
                f"metric name {name!r} must be lower-case dotted/underscored"
            )
        return name

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(self._check_name(name))
            return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(self._check_name(name))
            return instrument

    def histogram(
        self, name: str, buckets: tuple[float, ...] | list[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed on creation)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    self._check_name(name), buckets
                )
            elif tuple(float(b) for b in buckets) != instrument.buckets:
                raise ValueError(
                    f"histogram {name!r} already exists with different buckets"
                )
            return instrument

    def snapshot(self) -> dict:
        """JSON-ready state of every instrument."""
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
            gauges = {n: g.value for n, g in sorted(self._gauges.items())}
            histograms = {n: h.to_dict() for n, h in sorted(self._histograms.items())}
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`snapshot`."""
        return prometheus_from_snapshot(self.snapshot())

    def write(self, path: str | os.PathLike) -> dict:
        """Atomically write :meth:`snapshot` as indented JSON; returns it."""
        data = self.snapshot()
        atomic_write_json(path, data)
        return data


def _promname(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_from_snapshot(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as text exposition.

    Shared by the live registry and ``repro metrics --prometheus`` (which
    re-renders a ``metrics.json`` written by an earlier run).  Histogram
    buckets are emitted cumulatively with the standard ``le`` label and
    trailing ``+Inf`` / ``_sum`` / ``_count`` series.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _promname(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _promname(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_fmt(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        prom = _promname(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        cumulative += hist["counts"][len(hist["buckets"])]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {repr(float(hist['sum']))}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
