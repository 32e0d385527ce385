"""Spans: the one instrumentation primitive, with cross-process tracing.

A *span* is one timed stage (``serve.repair``, ``nn.conv2d``,
``admission.queue_wait``, ``worker.compute``, ...).  :func:`span` and
:func:`record` are the only timing API in the codebase, and they have
two modes:

- **no telemetry session:** one module-level reference read
  (``_TRACER is None``) returning :data:`NULL_SPAN`, so instrumentation
  points cost nothing;
- **session active:** every :class:`~repro.obs.session.TelemetrySession`
  installs a :class:`Tracer`, and every span ending under it is observed
  into the session's ``trace.<name>_s`` histogram.  The span is also
  written as a ``trace.span`` event in the schema-versioned event log —
  but only when it belongs to a *sampled* request.

Sampled spans carry ``trace_id`` / ``span_id`` / ``parent_id`` and form
a tree per request; trace ids derive deterministically from the request
id (``<run_id>/r<index>``) so a request can be correlated across
processes and across re-runs.  In outline:

- a *span-context stack* supplies the ambient parent for nested spans;
  it is thread-local, so a span open on one thread never parents a
  span started on another;
- a traced session (``obs.start(trace=True)``) samples every request;
  a root span lasting :data:`SLOW_REQUEST_S` or longer also writes a
  ``trace.slow_request`` warning.  A session started without tracing
  samples nothing: its spans feed the histograms only.

Cross-process: pool workers have no telemetry session.  Each installs
a :class:`WorkerTracer` that keeps finished span records in memory; a
task's records ride back in its reply over the pipe, and the parent
folds them into the main event log with :meth:`Tracer.merge`, correctly
parented via the wire context ``(trace_id, parent_span_id,
request_id)`` that rode the task message.  The event log is the only
span store.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "SPAN_EVENT",
    "SLOW_EVENT",
    "SLOW_REQUEST_S",
    "Span",
    "Tracer",
    "WorkerTracer",
    "derive_trace_id",
    "derive_span_id",
    "install",
    "uninstall",
    "tracer",
    "current_span",
    "NULL_SPAN",
    "span",
    "record",
    "wire_context",
    "load_spans",
    "validate_spans",
    "stage_table",
    "build_trees",
    "render_waterfall",
    "critical_paths",
]

SPAN_EVENT = "trace.span"
SLOW_EVENT = "trace.slow_request"

#: Root-span duration (seconds) at or above which a sampled request
#: also writes a ``trace.slow_request`` warning.
SLOW_REQUEST_S = 0.25

# Fields every span record must carry (checked by
# ``repro.obs.schema.span_field_errors`` for ``validate_spans`` and for
# schema-v2 event lines).
SPAN_FIELDS: Dict[str, type | tuple] = {
    "trace_id": str,
    "span_id": str,
    "name": str,
    "duration_s": (int, float),
}


def derive_trace_id(request_id: str) -> str:
    """Deterministic 16-hex trace id for a ``<run_id>/r<index>`` request id."""
    return hashlib.sha256(request_id.encode("utf-8")).hexdigest()[:16]


def derive_span_id(trace_id: str, seed: str) -> str:
    """Deterministic span id from the trace id and a per-trace seed."""
    return hashlib.sha256(f"{trace_id}/{seed}".encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Ambient span-context stack (thread-local)
# ----------------------------------------------------------------------
_THREAD = threading.local()


def _thread_stack() -> List["Span"]:
    stack = getattr(_THREAD, "stack", None)
    if stack is None:
        stack = _THREAD.stack = []
    return stack


def current_span() -> Optional["Span"]:
    """The innermost ambient span of the calling thread."""
    stack = getattr(_THREAD, "stack", None)
    return stack[-1] if stack else None


class _TraceState:
    """Per-trace bookkeeping: the span-id counter."""

    __slots__ = ("counter", "lock")

    def __init__(self) -> None:
        self.counter = 0
        self.lock = threading.Lock()

    def next_seed(self) -> str:
        with self.lock:
            self.counter += 1
            return str(self.counter)


class Span:
    """One timed stage.  Context-manager entry pushes it on the calling
    thread's ambient stack; exit pops and ends it.  ``end()`` is
    idempotent."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "request_id",
        "attrs",
        "start_ts",
        "duration_s",
        "_t0",
        "_tracer",
        "_state",
        "_ended",
    )

    def __init__(
        self,
        tracer: "_BaseTracer",
        state: Optional[_TraceState],
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        request_id: Optional[str],
        attrs: Optional[dict] = None,
        t_offset_s: float = 0.0,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_ts = round(time.time() - t_offset_s, 6)
        self.duration_s: Optional[float] = None
        self._t0 = time.perf_counter() - t_offset_s
        self._tracer = tracer
        self._state = state
        self._ended = False

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def end(self, **fields: Any) -> None:
        if self._ended:
            return
        self._ended = True
        if fields:
            self.attrs.update(fields)
        self.duration_s = round(time.perf_counter() - self._t0, 6)
        self._tracer._finish(self)

    def to_record(self) -> dict:
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.request_id is not None:
            record["request_id"] = self.request_id
        record.update(self.attrs)
        return record

    def __enter__(self) -> "Span":
        _thread_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _thread_stack()
        if self in stack:
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id})"


class _NullSpan:
    """No-op stand-in returned on every disabled/unsampled path."""

    __slots__ = ()
    name = None
    trace_id = None
    span_id = None
    parent_id = None
    request_id = None
    duration_s = None
    is_root = False

    def end(self, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _TimedSpan(_NullSpan):
    """A stage outside any sampled trace: timed into the session's
    ``trace.<name>_s`` histogram on exit, never emitted as an event and
    never an ambient parent (nested spans stay unsampled too)."""

    __slots__ = ("name", "duration_s", "_t0", "_tracer")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.name = name
        self.duration_s: Optional[float] = None
        self._tracer = tracer
        self._t0 = time.perf_counter()

    def end(self, **fields: Any) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
            self._tracer._observe(self.name, self.duration_s)

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class _BaseTracer:
    """Shared span-construction machinery; subclasses define the sink."""

    def unsampled(self, name: str):
        """The span for a stage with no sampled parent."""
        return NULL_SPAN

    def _observe(self, name: str, duration_s: float) -> None:
        """Feed one stage duration to the metrics sink, if any."""

    def child(self, parent: Span, name: str, attrs: Optional[dict] = None) -> Span:
        state = parent._state
        seed = state.next_seed() if state is not None else self._next_seed()
        return Span(
            self,
            state,
            name,
            parent.trace_id,
            derive_span_id(parent.trace_id, seed),
            parent.span_id,
            parent.request_id,
            attrs,
        )

    def resume(
        self, wire: Tuple[str, str, Optional[str]], name: str, seed: str, **attrs: Any
    ) -> Span:
        """A span parented across a process boundary via a wire context."""
        trace_id, parent_id, request_id = wire
        return Span(
            self,
            None,
            name,
            trace_id,
            derive_span_id(trace_id, seed),
            parent_id,
            request_id,
            attrs,
        )

    def record(
        self,
        name: str,
        duration_s: float,
        parent: Optional[Span],
        **attrs: Any,
    ) -> None:
        """Record an already-measured stage as a completed child span
        (histogram only when ``parent`` is not a sampled span)."""
        if not parent:
            self._observe(name, duration_s)
            return
        child = self.child(parent, name, attrs)
        child.start_ts = round(time.time() - duration_s, 6)
        child._ended = True
        child.duration_s = round(float(duration_s), 6)
        self._finish(child)

    def _next_seed(self) -> str:
        raise NotImplementedError

    def _finish(self, span_obj: Span) -> None:
        raise NotImplementedError


class Tracer(_BaseTracer):
    """Parent-process tracer: times every span into the session's
    ``trace.<name>_s`` histograms and, when ``sampled``, sinks every
    request's spans into its event log (otherwise histograms only)."""

    def __init__(self, session, sampled: bool) -> None:
        self._session = session
        self.sampled = sampled
        self._lock = threading.Lock()
        self._counter = 0

    def unsampled(self, name: str) -> _TimedSpan:
        """A histogram-only span for a stage outside any sampled trace."""
        return _TimedSpan(self, name)

    def _observe(self, name: str, duration_s: float) -> None:
        try:
            histogram = self._session.metrics.histogram(f"trace.{name}_s")
        except ValueError:
            return  # span name not a valid metric name: skip the histogram
        histogram.observe(duration_s)

    # -- trace lifecycle ----------------------------------------------
    def start_trace(
        self,
        request_id: str,
        t_offset_s: float = 0.0,
        **attrs: Any,
    ) -> Optional[Span]:
        """Root ``request`` span for one request, or ``None`` untraced."""
        if not self.sampled:
            return None
        trace_id = derive_trace_id(request_id)
        return Span(
            self,
            _TraceState(),
            "request",
            trace_id,
            derive_span_id(trace_id, "root"),
            None,
            request_id,
            attrs,
            t_offset_s=t_offset_s,
        )

    def merge(self, record_dict: dict) -> None:
        """Fold a span record from a pool worker's reply into this sink:
        observed into its stage histogram here (the worker has no
        session), then emitted."""
        name = record_dict.get("name")
        duration = record_dict.get("duration_s")
        if isinstance(name, str) and isinstance(duration, (int, float)):
            self._observe(name, duration)
        self._emit_record(record_dict)

    # -- internals -----------------------------------------------------
    def _next_seed(self) -> str:
        with self._lock:
            self._counter += 1
            return f"x{self._counter}"

    def _finish(self, span_obj: Span) -> None:
        self._observe(span_obj.name, span_obj.duration_s)
        self._emit_record(span_obj.to_record())
        if span_obj.is_root and (span_obj.duration_s or 0.0) >= SLOW_REQUEST_S:
            self._session.emit(
                SLOW_EVENT,
                level="warning",
                message=f"request exceeded {SLOW_REQUEST_S * 1000:.0f}ms",
                trace_id=span_obj.trace_id,
                request_id=span_obj.request_id,
                duration_s=span_obj.duration_s,
                threshold_s=SLOW_REQUEST_S,
            )

    def _emit_record(self, record_dict: dict) -> None:
        self._session.emit(SPAN_EVENT, **record_dict)


class WorkerTracer(_BaseTracer):
    """Pool-worker tracer: keeps finished span records in memory.

    Workers have no telemetry session; the pool ships each task's
    records (:meth:`take`) back in the task's reply, and the parent
    folds them in with :meth:`Tracer.merge`.  Every record is stamped
    with the worker id and pid.
    """

    def __init__(self, worker: int) -> None:
        self.worker = worker
        self._records: List[dict] = []
        self._counter = 0

    def _next_seed(self) -> str:
        self._counter += 1
        return f"w{self.worker}.{os.getpid()}.{self._counter}"

    def _finish(self, span_obj: Span) -> None:
        record_dict = span_obj.to_record()
        record_dict.setdefault("worker", self.worker)
        record_dict.setdefault("pid", os.getpid())
        self._records.append(record_dict)

    def take(self) -> List[dict]:
        """The records finished since the last call, and forget them."""
        records, self._records = self._records, []
        return records


# ----------------------------------------------------------------------
# Module-level tracer: one reference read on the disabled path
# ----------------------------------------------------------------------
_TRACER: Optional[_BaseTracer] = None


def install(t: _BaseTracer) -> None:
    global _TRACER
    _TRACER = t


def uninstall() -> None:
    global _TRACER
    _TRACER = None


def tracer() -> Optional[_BaseTracer]:
    return _TRACER


def span(name: str, parent: Optional[Span] = None, **attrs: Any):
    """Time a stage: ``with span("serve.repair"): ...``.

    ``NULL_SPAN`` with no telemetry session.  Under a session the stage
    always lands in the ``trace.<name>_s`` histogram; it is also a child
    span of ``parent`` (default: the ambient span) when that belongs to
    a sampled trace.
    """
    t = _TRACER
    if t is None:
        return NULL_SPAN
    if parent is None:
        parent = current_span()
    if not parent:
        return t.unsampled(name)
    return t.child(parent, name, attrs or None)


def record(
    name: str, duration_s: float, parent: Optional[Span] = None, **attrs: Any
) -> None:
    """Record an already-measured stage; no-op without a session."""
    t = _TRACER
    if t is None:
        return
    if parent is None:
        parent = current_span()
    t.record(name, duration_s, parent, **attrs)


def wire_context(parent: Optional[Span] = None) -> Optional[Tuple[str, str, Optional[str]]]:
    """Serializable ``(trace_id, parent_span_id, request_id)`` for IPC."""
    t = _TRACER
    if t is None:
        return None
    if parent is None:
        parent = current_span()
    if not parent:
        return None
    return (parent.trace_id, parent.span_id, parent.request_id)


# ----------------------------------------------------------------------
# Analysis: loading, validation, per-stage stats, waterfall, critical path
# (backs the ``repro trace DIR`` CLI and the report)
# ----------------------------------------------------------------------
def load_spans(directory: str) -> List[dict]:
    """The ``trace.span`` events of a telemetry directory's event log."""
    from .log import EVENTS_FILE, read_events

    events_path = os.path.join(directory, EVENTS_FILE)
    if not os.path.exists(events_path):
        return []
    return [
        event for event in read_events(events_path) if event.get("event") == SPAN_EVENT
    ]


def validate_spans(spans: Iterable[dict]) -> List[str]:
    """Structural violations in span records; empty means valid.

    Field types are the event schema's span check; on top of it come
    the tree checks: a non-negative duration, a string ``parent_id``
    and span ids unique within their trace.
    """
    from .schema import span_field_errors  # schema imports this module

    errors: List[str] = []
    ids = set()
    for i, record_dict in enumerate(spans):
        where = f"span {i}"
        errors.extend(f"{where}: {problem}" for problem in span_field_errors(record_dict))
        duration = record_dict.get("duration_s")
        if isinstance(duration, (int, float)) and duration < 0:
            errors.append(f"{where}: negative duration {duration!r}")
        parent = record_dict.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            errors.append(f"{where}: field 'parent_id' must be a string")
        key = (record_dict.get("trace_id"), record_dict.get("span_id"))
        if None not in key:
            if key in ids:
                errors.append(f"{where}: duplicate span id {key[1]!r} in trace {key[0]!r}")
            ids.add(key)
    return errors


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def stage_table(spans: Iterable[dict]) -> List[dict]:
    """Aggregated per-stage latency rows: count, p50/p99 ms, total s."""
    by_name: Dict[str, List[float]] = {}
    for record_dict in spans:
        name = record_dict.get("name")
        duration = record_dict.get("duration_s")
        if isinstance(name, str) and isinstance(duration, (int, float)):
            by_name.setdefault(name, []).append(float(duration))
    rows = []
    for name, durations in sorted(by_name.items()):
        durations.sort()
        rows.append(
            {
                "stage": name,
                "count": len(durations),
                "p50_ms": round(_percentile(durations, 0.50) * 1000.0, 3),
                "p99_ms": round(_percentile(durations, 0.99) * 1000.0, 3),
                "total_s": round(sum(durations), 6),
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def build_trees(spans: Iterable[dict]) -> List[dict]:
    """Group spans into per-trace trees.

    Returns one dict per trace: ``{"trace_id", "request_id", "root",
    "spans", "children"}`` where ``children`` maps span_id -> list of
    child records.  Traces without a root (e.g. a worker span whose
    request never finished) are skipped.
    """
    by_trace: Dict[str, List[dict]] = {}
    for record_dict in spans:
        trace_id = record_dict.get("trace_id")
        if isinstance(trace_id, str):
            by_trace.setdefault(trace_id, []).append(record_dict)
    trees = []
    for trace_id, members in by_trace.items():
        roots = [m for m in members if m.get("parent_id") is None]
        if not roots:
            continue
        root = roots[0]
        children: Dict[str, List[dict]] = {}
        for member in members:
            parent = member.get("parent_id")
            if isinstance(parent, str):
                children.setdefault(parent, []).append(member)
        for sibling_list in children.values():
            sibling_list.sort(key=lambda m: m.get("start_ts") or 0.0)
        request_id = root.get("request_id")
        trees.append(
            {
                "trace_id": trace_id,
                "request_id": request_id,
                "root": root,
                "spans": members,
                "children": children,
            }
        )
    trees.sort(key=lambda t: -(t["root"].get("duration_s") or 0.0))
    return trees


def render_waterfall(tree: dict, width: int = 40) -> List[str]:
    """Text waterfall for one trace: offset, duration and a scaled bar."""
    root = tree["root"]
    t0 = root.get("start_ts") or 0.0
    total = max(root.get("duration_s") or 0.0, 1e-9)
    lines = [
        f"waterfall: {tree.get('request_id') or tree['trace_id']}  "
        f"({total * 1000.0:.1f}ms, trace {tree['trace_id']})"
    ]

    def _bar(offset_s: float, duration_s: float) -> str:
        start = int(max(0.0, min(1.0, offset_s / total)) * width)
        length = max(1, int(min(1.0, duration_s / total) * width))
        length = min(length, width - start) or 1
        return " " * start + "#" * length

    def _walk(record_dict: dict, depth: int) -> None:
        offset = max(0.0, (record_dict.get("start_ts") or t0) - t0)
        duration = record_dict.get("duration_s") or 0.0
        name = "  " * depth + str(record_dict.get("name"))
        extra = ""
        if record_dict.get("worker") is not None:
            extra = f"  [worker {record_dict['worker']}]"
        lines.append(
            f"  {name:<30} {offset * 1000.0:>8.1f}ms {duration * 1000.0:>8.1f}ms "
            f"|{_bar(offset, duration):<{width}}|{extra}"
        )
        for child in tree["children"].get(record_dict.get("span_id"), ()):
            _walk(child, depth + 1)

    _walk(root, 0)
    return lines


def critical_paths(trees: Iterable[dict]) -> List[dict]:
    """Dominant stage chain per trace, aggregated across traces.

    For each trace, descend from the root into the longest-duration
    child at every level; the resulting chain is that request's critical
    path.  Returns one row per distinct path with its frequency, mean
    leaf duration, and mean fraction of end-to-end latency.
    """
    aggregate: Dict[tuple, List[Tuple[float, float]]] = {}
    for tree in trees:
        node = tree["root"]
        total = max(node.get("duration_s") or 0.0, 1e-9)
        path = [str(node.get("name"))]
        while True:
            kids = tree["children"].get(node.get("span_id"), ())
            if not kids:
                break
            node = max(kids, key=lambda m: m.get("duration_s") or 0.0)
            path.append(str(node.get("name")))
        leaf = node.get("duration_s") or 0.0
        aggregate.setdefault(tuple(path), []).append((leaf, leaf / total))
    rows = []
    for path, samples in aggregate.items():
        rows.append(
            {
                "path": " > ".join(path),
                "count": len(samples),
                "mean_leaf_ms": round(
                    sum(s[0] for s in samples) / len(samples) * 1000.0, 3
                ),
                "mean_fraction": round(
                    sum(s[1] for s in samples) / len(samples), 4
                ),
            }
        )
    rows.sort(key=lambda r: -r["count"])
    return rows
