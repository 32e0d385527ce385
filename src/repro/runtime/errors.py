"""Structured errors raised by the resilience runtime.

Every long-running workload (dataset build, training, artifact IO) maps
its failure modes onto one of these types so callers — in particular
:mod:`repro.cli` — can translate them into exit codes and one-line
messages instead of raw tracebacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .report import BuildReport

__all__ = ["CorruptArtifactError", "TrainingDiverged", "BuildAborted"]


class CorruptArtifactError(RuntimeError):
    """An on-disk artifact (dataset or weights ``.npz``) failed integrity checks.

    Raised when a file is truncated, unreadable as a zip archive, missing
    required fields, or its embedded checksum does not match the stored
    arrays.  ``path`` and ``reason`` are kept as attributes for
    programmatic handling.
    """

    def __init__(self, path: object, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"corrupt artifact {self.path}: {reason}")

    def __reduce__(self):
        # ``args`` holds the formatted message, which ``__init__`` does
        # not accept: rebuild from the fields so the error pickles (a
        # pool worker sends it to the parent this way).
        return (type(self), (self.path, self.reason))


class TrainingDiverged(RuntimeError):
    """Training hit non-finite losses/gradients and exhausted its retries.

    Carries the :class:`~repro.core.training.History` accumulated up to
    the last good epoch plus the retry bookkeeping, so callers can
    inspect how far the run got before giving up.
    """

    def __init__(self, message: str, history: Any = None, attempts: int = 0,
                 last_lr: float = float("nan")) -> None:
        self.history = history
        self.attempts = attempts
        self.last_lr = last_lr
        super().__init__(message)


class BuildAborted(RuntimeError):
    """A dataset build failed permanently despite per-sample retries.

    Raised when a single sample slot keeps failing after
    ``max_sample_retries`` resampling attempts; carries the accumulated
    :class:`~repro.runtime.report.BuildReport` as ``report``.
    """

    def __init__(self, message: str, report: "BuildReport | None" = None) -> None:
        self.report = report
        super().__init__(message)
