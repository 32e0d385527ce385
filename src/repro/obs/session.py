"""Telemetry session lifecycle: the one switch the whole stack checks.

Telemetry is **off by default** and must cost nothing while off.  The
entire disabled path is :func:`active` — a read of one module-level
reference returning ``None`` — or, for timed stages, the same check
inside :func:`repro.obs.span`.  Instrumented code does::

    session = obs.active()
    if session is not None:
        session.emit("serve.request", ...)
        session.metrics.counter("serve.requests").inc()

    with obs.span("serve.repair"):    # trace.serve.repair_s histogram
        ...

:func:`start` opens a :class:`TelemetrySession` bound to a directory:

* ``events.jsonl`` — the structured event stream (:mod:`repro.obs.log`);
* ``metrics.json`` — the registry snapshot, written on :func:`stop`;

stamps the session's ``run_id`` on every event it emits, from any
thread, and installs the session's
:class:`~repro.obs.trace.Tracer`, so every span feeds a
``trace.<name>_s`` histogram and one ``repro metrics`` report covers
events, counters, gauges and stage timings.

Sessions do not nest: :func:`start` while a session is active raises —
one process serves one telemetry directory at a time, which is what
keeps the hot-path check a single load.  A directory holds one session:
:func:`start` on a directory that already has an ``events.jsonl``
raises ``FileExistsError`` before anything is written, so an earlier
run's audit trail and ``metrics.json`` are never appended to or
overwritten.
"""

from __future__ import annotations

import os
import secrets
import threading
import time

from . import trace as trace_mod
from .log import EVENTS_FILE, EventLog
from .metrics import METRICS_FILE, MetricsRegistry

__all__ = [
    "TelemetrySession",
    "start",
    "stop",
    "active",
    "new_id",
    "set_workspace_gauges",
]

_STATE_LOCK = threading.Lock()
_SESSION: "TelemetrySession | None" = None


def set_workspace_gauges(metrics: MetricsRegistry) -> None:
    """Copy the conv workspace-cache counters
    (:func:`repro.nn.workspace_total_stats`) into ``nn.workspace_*``
    gauges: at session close for ``metrics.json``, and on every daemon
    ``/metrics`` scrape."""
    from ..nn import workspace_total_stats

    for name, value in workspace_total_stats().items():
        if name == "hit_rate":
            continue  # derivable from hits/misses; gauges stay raw counts
        metrics.gauge(f"nn.workspace_{name}").set(value)


def new_id(prefix: str = "run") -> str:
    """Fresh identifier: ``<prefix>-<utc-compact-time>-<6 hex chars>``."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{prefix}-{stamp}-{secrets.token_hex(3)}"


class TelemetrySession:
    """One enabled telemetry run bound to an output directory.

    Created via :func:`start`; carries the :class:`EventLog`, the
    :class:`MetricsRegistry` and the ``run_id`` every event is stamped
    with.  Per-request identifiers are minted with
    :meth:`new_request_id`, which scopes them under the run so one
    ``grep request_id events.jsonl`` finds both the serving audit record
    and any terminal error event of the same sample.
    """

    def __init__(self, directory: str | os.PathLike, run_id: str | None = None) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.run_id = run_id or new_id()
        self.log = EventLog(os.path.join(self.directory, EVENTS_FILE))
        self.metrics = MetricsRegistry()
        self.tracer = None  # installed by start()
        self._request_counter = 0
        self._counter_lock = threading.Lock()
        self._started = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def emit(self, event: str, level: str = "info", message: str | None = None,
             **fields: object) -> dict:
        """Emit one structured event through the session log, stamped
        with this session's ``run_id`` (a caller's ``run_id`` wins)."""
        return self.log.emit(
            event, level=level, message=message,
            **{"run_id": self.run_id, **fields},
        )

    def new_request_id(self, index: int | None = None) -> str:
        """Mint a request identifier scoped under this session's run.

        With ``index`` given (a dataset/sample position) the id is
        deterministic per run — ``<run_id>/r<index>`` — so replaying the
        same dataset yields correlatable ids; otherwise a process-unique
        counter is used.
        """
        if index is not None:
            return f"{self.run_id}/r{int(index)}"
        with self._counter_lock:
            self._request_counter += 1
            return f"{self.run_id}/q{self._request_counter}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open(self, **start_fields: object) -> None:
        self.emit("session.start", directory=self.directory, **start_fields)

    def close(self, status: str = "ok", **end_fields: object) -> dict:
        """Emit the terminal event, write ``metrics.json``, close the log.

        Returns the final metrics snapshot.  Idempotent: a second close
        returns an empty dict.
        """
        if self._closed:
            return {}
        self._closed = True
        self.emit(
            "session.end",
            level="info" if status == "ok" else "error",
            status=status,
            duration_s=round(time.time() - self._started, 6),
            **end_fields,
        )
        set_workspace_gauges(self.metrics)
        snapshot = self.metrics.write(os.path.join(self.directory, METRICS_FILE))
        self.log.close()
        return snapshot


def start(
    directory: str | os.PathLike,
    run_id: str | None = None,
    trace: bool = False,
    **start_fields: object,
) -> TelemetrySession:
    """Enable telemetry into ``directory`` and return the live session.

    ``start_fields`` ride on the ``session.start`` event (the CLI passes
    the subcommand and its arguments).  Every session installs a
    :class:`~repro.obs.trace.Tracer` (uninstalled by :func:`stop`), so
    each :func:`repro.obs.span` feeds a ``trace.<name>_s`` histogram.
    With ``trace`` every request's span tree is also written as
    ``trace.span`` events.
    """
    global _SESSION
    with _STATE_LOCK:
        if _SESSION is not None:
            raise RuntimeError(
                f"telemetry already active in {_SESSION.directory}; stop() it first"
            )
        session = TelemetrySession(directory, run_id=run_id)
        session.tracer = trace_mod.Tracer(session, bool(trace))
        trace_mod.install(session.tracer)
        session._open(**start_fields)
        _SESSION = session
    return session


def stop(status: str = "ok", **end_fields: object) -> dict:
    """Close the active session (no-op if none); returns its final snapshot."""
    global _SESSION
    with _STATE_LOCK:
        session = _SESSION
        _SESSION = None
    if session is None:
        return {}
    trace_mod.uninstall()
    return session.close(status=status, **end_fields)


def active() -> TelemetrySession | None:
    """The live session, or ``None`` — the entire cost of disabled telemetry."""
    return _SESSION
