"""Unified telemetry: structured events, metrics, tracing, drift watch.

Every layer of the system reports through this package when (and only
when) a telemetry session is active:

* :mod:`repro.obs.log` — schema-versioned JSONL event records, each
  stamped with the session's ``run_id`` and, for served samples, a
  ``request_id``;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with JSON snapshots and Prometheus text exposition (the
  conv workspace cache's counters land as ``nn.workspace_*`` gauges);
* :mod:`repro.obs.session` — the on/off switch: ``start(dir)`` /
  ``stop()``; the disabled path is a single ``active() is None`` check,
  so library code is free to instrument unconditionally;
* :mod:`repro.obs.trace` — :func:`span` / :func:`record`, the one
  timing primitive: under a session every span feeds a
  ``trace.<name>_s`` histogram, and spans of sampled requests (trace_id
  / span_id / parent_id, start, duration) are also recorded through the
  event log, with cross-process propagation into pool workers and the
  ``repro trace`` analysis CLI;
* :mod:`repro.obs.drift` — PSI/KS monitoring of the served score and
  flux distributions against a baseline committed with the model;
* :mod:`repro.obs.schema` / :mod:`repro.obs.report` — validation and
  the ``repro metrics`` report over a telemetry directory.

The CLI wires it up via ``--telemetry DIR`` on ``build-dataset``, the
training commands and ``classify``, and reads it back with
``repro metrics DIR``.
"""

from .drift import (
    BASELINE_FILE,
    DriftBaseline,
    DriftMonitor,
    DriftReport,
    ks_statistic,
    psi_statistic,
)
from .log import (
    EVENTS_FILE,
    LEVELS,
    SCHEMA_VERSION,
    EventLog,
    read_events,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    METRICS_FILE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_from_snapshot,
)
from .report import summarize_directory, tail_events
from .schema import validate_event, validate_file
from .session import TelemetrySession, active, new_id, start, stop
from .trace import (
    SLOW_EVENT,
    SLOW_REQUEST_S,
    SPAN_EVENT,
    Span,
    Tracer,
    WorkerTracer,
    derive_trace_id,
    load_spans,
    record,
    span,
    validate_spans,
)

__all__ = [
    "SCHEMA_VERSION",
    "LEVELS",
    "EVENTS_FILE",
    "METRICS_FILE",
    "BASELINE_FILE",
    "EventLog",
    "read_events",
    "validate_event",
    "validate_file",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "prometheus_from_snapshot",
    "DriftBaseline",
    "DriftMonitor",
    "DriftReport",
    "psi_statistic",
    "ks_statistic",
    "TelemetrySession",
    "start",
    "stop",
    "active",
    "new_id",
    "summarize_directory",
    "tail_events",
    "SPAN_EVENT",
    "SLOW_EVENT",
    "SLOW_REQUEST_S",
    "Span",
    "Tracer",
    "WorkerTracer",
    "derive_trace_id",
    "load_spans",
    "validate_spans",
    "span",
    "record",
]
