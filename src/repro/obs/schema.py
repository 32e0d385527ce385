"""Event-record schema: what every telemetry line must carry.

The contract is deliberately small so producers stay cheap and the
validator stays honest:

* header fields (always): ``schema`` (== :data:`~repro.obs.log.SCHEMA_VERSION`),
  ``ts`` (unix seconds), ``seq`` (positive, per-log monotonic),
  ``level`` (one of :data:`~repro.obs.log.LEVELS`), ``event``
  (dotted lower-case name, e.g. ``serve.request``);
* identity (always): at least one of ``run_id`` / ``request_id``;
* span records (``event == "trace.span"``, schema v2): additionally
  ``trace_id`` / ``span_id`` / ``name`` (strings) and ``duration_s``
  (number) — see :mod:`repro.obs.trace`;
* everything else is free-form JSON owned by the emitting subsystem.

:func:`validate_event` checks one record and returns the list of
violations (empty = valid); :func:`validate_file` folds that over a
whole ``events.jsonl`` and additionally checks ``seq`` monotonicity.
The CI ``obs-smoke`` job runs ``repro metrics DIR --validate`` which is
a thin wrapper over :func:`validate_file`.
"""

from __future__ import annotations

import os
import re

from .log import LEVELS, SCHEMA_VERSION, read_events
from .trace import SPAN_EVENT, SPAN_FIELDS

__all__ = ["validate_event", "validate_file"]

_EVENT_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: Header fields and their accepted types.
_HEADER_TYPES = {
    "schema": int,
    "ts": (int, float),
    "seq": int,
    "level": str,
    "event": str,
}

#: Fields that establish which unit of work emitted the record.
_ID_FIELDS = ("run_id", "request_id")


def validate_event(record: object) -> list[str]:
    """Violations of the event schema in one record (empty list = valid)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    errors: list[str] = []
    for name, types in _HEADER_TYPES.items():
        if name not in record:
            errors.append(f"missing required field {name!r}")
        elif not isinstance(record[name], types) or isinstance(record[name], bool):
            errors.append(
                f"field {name!r} has type {type(record[name]).__name__}"
            )
    if isinstance(record.get("schema"), int) and record["schema"] != SCHEMA_VERSION:
        errors.append(
            f"schema version {record['schema']} != supported {SCHEMA_VERSION}"
        )
    if isinstance(record.get("seq"), int) and record["seq"] < 1:
        errors.append(f"seq must be >= 1, got {record['seq']}")
    if isinstance(record.get("level"), str) and record["level"] not in LEVELS:
        errors.append(f"unknown level {record['level']!r}")
    if isinstance(record.get("event"), str) and not _EVENT_NAME.match(record["event"]):
        errors.append(f"event name {record['event']!r} is not dotted lower-case")
    if not any(isinstance(record.get(f), str) and record[f] for f in _ID_FIELDS):
        errors.append("record carries neither run_id nor request_id")
    if record.get("event") == SPAN_EVENT:
        errors.extend(span_field_errors(record))
    return errors


def span_field_errors(record: dict) -> list[str]:
    """Violations of the span fields (:data:`~repro.obs.trace.SPAN_FIELDS`)
    in one span record; the header is not checked."""
    errors: list[str] = []
    for name, types in SPAN_FIELDS.items():
        if record.get(name) is None:
            errors.append(f"span record missing field {name!r}")
        elif not isinstance(record[name], types) or isinstance(record[name], bool):
            errors.append(
                f"span field {name!r} has type {type(record[name]).__name__}"
            )
    return errors


def validate_file(path: str | os.PathLike) -> tuple[int, list[str]]:
    """Validate every line of an ``events.jsonl``.

    Returns ``(n_records, errors)`` where each error string is prefixed
    with the record's position.  Beyond per-record checks, ``seq`` must
    increase strictly — a reset or duplicate means two processes wrote
    the same file or a record was lost.
    """
    errors: list[str] = []
    last_seq = 0
    n = 0
    try:
        for n, record in enumerate(read_events(path), start=1):
            for problem in validate_event(record):
                errors.append(f"record {n}: {problem}")
            seq = record.get("seq") if isinstance(record, dict) else None
            if isinstance(seq, int):
                if seq <= last_seq:
                    errors.append(
                        f"record {n}: seq {seq} does not increase past {last_seq}"
                    )
                last_seq = seq
    except ValueError as exc:
        errors.append(str(exc))
    return n, errors
