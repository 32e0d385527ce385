"""Render a telemetry directory as one human-readable report.

Backs the ``repro metrics DIR`` subcommand: reads the ``events.jsonl``
stream and the ``metrics.json`` snapshot written by a telemetry session
and produces a single report covering session identity, event volumes,
counters, gauges and histograms (stage timings are the ``trace.<name>_s``
ones) — so "what did that run do" needs one command, not three files
and a jq pipeline.
"""

from __future__ import annotations

import json
import os

from .log import EVENTS_FILE, read_events
from .metrics import METRICS_FILE, prometheus_from_snapshot

__all__ = [
    "load_snapshot",
    "summarize_directory",
    "tail_events",
    "format_event",
]


def load_snapshot(directory: str | os.PathLike) -> dict:
    """The ``metrics.json`` snapshot of a telemetry dir (``{}`` if absent)."""
    path = os.path.join(os.fspath(directory), METRICS_FILE)
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def _events_path(directory: str | os.PathLike) -> str:
    return os.path.join(os.fspath(directory), EVENTS_FILE)


def format_event(record: dict) -> str:
    """One-line human rendering of a structured event record."""
    header_keys = ("schema", "ts", "seq", "level", "event", "message")
    extras = {k: v for k, v in record.items() if k not in header_keys}
    parts = [
        f"#{record.get('seq', '?')}",
        f"[{record.get('level', '?')}]",
        str(record.get("event", "?")),
    ]
    message = record.get("message")
    if message:
        parts.append(str(message))
    if extras:
        parts.append(
            " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in sorted(extras.items()))
        )
    return " ".join(parts)


def tail_events(directory: str | os.PathLike, n: int = 10) -> list[dict]:
    """The last ``n`` records of the directory's event stream."""
    path = _events_path(directory)
    if not os.path.exists(path):
        return []
    records = list(read_events(path))
    return records[-n:] if n > 0 else []


def _histogram_lines(name: str, hist: dict) -> list[str]:
    lines = [
        f"  {name}: count={hist['count']} sum={hist['sum']:.6g}"
        + (
            f" mean={hist['sum'] / hist['count']:.6g}"
            if hist["count"]
            else ""
        )
    ]
    bounds = list(hist["buckets"]) + [float("inf")]
    for bound, count in zip(bounds, hist["counts"]):
        if count == 0:
            continue
        label = "+Inf" if bound == float("inf") else f"{bound:g}"
        lines.append(f"    le={label}: {count}")
    return lines


def summarize_directory(directory: str | os.PathLike) -> str:
    """Full text report of one telemetry directory.

    Sections: session (from the first/last events), event volume by name
    with worst level, sampled trace spans, counters, gauges, histograms.  Raises
    :class:`FileNotFoundError` when the directory holds neither an event
    stream nor a metrics snapshot.
    """
    directory = os.fspath(directory)
    events_path = _events_path(directory)
    snapshot = load_snapshot(directory)
    has_events = os.path.exists(events_path)
    if not has_events and not snapshot:
        raise FileNotFoundError(
            f"{directory} contains neither {EVENTS_FILE} nor {METRICS_FILE}; "
            "is it a telemetry directory?"
        )

    lines: list[str] = [f"telemetry report: {directory}"]
    n_events = 0
    by_event: dict[str, int] = {}
    by_level: dict[str, int] = {}
    run_ids: dict[str, None] = {}
    span_stats: dict[str, list[float]] = {}  # stage -> [count, total_s]
    trace_ids: set[str] = set()
    first = last = None
    if has_events:
        for record in read_events(events_path):
            n_events += 1
            if first is None:
                first = record
            last = record
            by_event[record.get("event", "?")] = by_event.get(record.get("event", "?"), 0) + 1
            by_level[record.get("level", "?")] = by_level.get(record.get("level", "?"), 0) + 1
            rid = record.get("run_id")
            if rid:
                run_ids[rid] = None
            if record.get("event") == "trace.span":
                name = record.get("name")
                duration = record.get("duration_s")
                if isinstance(name, str) and isinstance(duration, (int, float)):
                    entry = span_stats.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += float(duration)
                tid = record.get("trace_id")
                if isinstance(tid, str):
                    trace_ids.add(tid)

    lines.append("")
    lines.append("session")
    if run_ids:
        lines.append(f"  run_id: {', '.join(run_ids)}")
    if first is not None and last is not None:
        lines.append(
            f"  events: {n_events} spanning {max(last.get('ts', 0) - first.get('ts', 0), 0.0):.3f}s"
        )
        if last.get("event") == "session.end":
            lines.append(
                f"  status: {last.get('status', '?')} "
                f"(duration {last.get('duration_s', '?')}s)"
            )
    if by_level:
        lines.append(
            "  levels: "
            + " ".join(f"{lvl}={by_level[lvl]}" for lvl in ("error", "warning", "info", "debug") if lvl in by_level)
        )

    if by_event:
        lines.append("")
        lines.append("events by type")
        width = max(len(name) for name in by_event)
        for name in sorted(by_event):
            lines.append(f"  {name:<{width}}  {by_event[name]}")

    if span_stats:
        lines.append("")
        lines.append(f"trace spans ({len(trace_ids)} trace(s); "
                     "details via `repro trace DIR`)")
        width = max(len(name) for name in span_stats)
        for name in sorted(span_stats):
            count, total = span_stats[name]
            lines.append(
                f"  {name:<{width}}  count={int(count)} total={total:.6f}s "
                f"mean={total / count:.6f}s"
            )

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value:g}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms")
        for name, hist in histograms.items():
            lines.extend(_histogram_lines(name, hist))

    return "\n".join(lines) + "\n"


def prometheus_report(directory: str | os.PathLike) -> str:
    """Prometheus text exposition re-rendered from ``metrics.json``."""
    return prometheus_from_snapshot(load_snapshot(directory))
