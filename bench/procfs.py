"""Per-process memory and CPU counters read from ``/proc`` (Linux)."""

from __future__ import annotations

import os


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` — the process's peak resident set size — in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time the process has used, in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; fields after
        # its closing parenthesis are space-separated, utime/stime are
        # fields 14 and 15 overall.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
