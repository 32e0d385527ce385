"""Structured JSONL event logging.

Every subsystem reports through one funnel: an :class:`EventLog` writes
schema-versioned JSON records (one per line) to ``events.jsonl`` inside
a telemetry directory.  Identifiers are ordinary fields: the telemetry
session stamps its ``run_id`` on every record it emits
(:meth:`repro.obs.session.TelemetrySession.emit`), and serving code
passes a ``request_id`` for each served sample.

Records look like::

    {"schema": 2, "ts": 1754400000.123, "seq": 7, "level": "info",
     "event": "train.epoch", "run_id": "run-...", "epoch": 3,
     "train_loss": 0.41, ...}

``schema`` is :data:`SCHEMA_VERSION` and bumps on any breaking change to
the required fields; :mod:`repro.obs.schema` validates records against
it.  Writing is serialised under a lock, so one log is safe to share
across the daemon's threads; ``seq`` is a per-log monotonic counter
that makes the interleaved stream totally ordered even when two events
land in the same clock tick.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, Iterator

__all__ = [
    "SCHEMA_VERSION",
    "LEVELS",
    "EVENTS_FILE",
    "EventLog",
    "read_events",
]

#: Version stamped into every record; bump on breaking field changes.
#: v2 added the ``trace.span`` record family (trace_id/span_id/name/
#: duration_s required on those lines — see :mod:`repro.obs.trace`).
SCHEMA_VERSION = 2

#: Recognised severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")

#: File name of the event stream inside a telemetry directory.
EVENTS_FILE = "events.jsonl"

def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / arrays / paths into JSON-native values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return str(value)


class EventLog:
    """Append-only JSONL event sink (thread-safe).

    Parameters
    ----------
    path:
        Target ``.jsonl`` file; parent directory must exist and the file
        must not: it is created exclusively (``FileExistsError``
        otherwise), so a second log can never interleave a restarted
        ``seq`` into an earlier run's stream.  Pass a file-like object
        instead to capture events in memory (tests).
    """

    def __init__(self, path: str | os.PathLike | io.TextIOBase) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        if isinstance(path, (str, os.PathLike)):
            self.path: str | None = os.fspath(path)
            self._handle: io.TextIOBase = open(self.path, "x")
            self._owns_handle = True
        else:
            self.path = None
            self._handle = path
            self._owns_handle = False
        self._closed = False

    def emit(self, event: str, level: str = "info", message: str | None = None,
             **fields: Any) -> dict:
        """Write one structured record; returns it (``{}`` once closed).

        The record carries the schema version, a wall-clock timestamp, a
        per-log sequence number and the caller's fields; the reserved
        header fields win over caller fields of the same name.
        """
        if not event:
            raise ValueError("event name must be non-empty")
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        record: dict[str, Any] = {str(k): _jsonable(v) for k, v in fields.items()}
        if message is not None:
            record["message"] = str(message)
        with self._lock:
            if self._closed:
                return {}
            self._seq += 1
            record.update(
                schema=SCHEMA_VERSION,
                ts=round(time.time(), 6),
                seq=self._seq,
                level=level,
                event=event,
            )
            self._handle.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
            self._handle.flush()
        return record

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(path: str | os.PathLike) -> Iterator[dict]:
    """Yield every record of an ``events.jsonl`` file in emission order.

    Raises :class:`ValueError` on a line that is not valid JSON — a
    truncated tail line (crash mid-write) is reported with its line
    number rather than silently skipped.
    """
    with open(os.fspath(path)) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{os.fspath(path)}:{lineno}: malformed event line: {exc}"
                ) from exc
