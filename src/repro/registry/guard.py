"""Rollback decision logic for the serving daemon's registry loop.

Pure bookkeeping, no threads and no IO: the daemon feeds
:class:`RollbackGuard` two independent signals and acts when either
crosses its configured budget —

* **production drift** — after each scored micro-batch the daemon
  reports the ``flagged`` verdict of the served version's
  :class:`~repro.obs.drift.DriftMonitor` (PSI/KS against the model's
  committed baseline, fed by the scorer that served the batch); the
  guard demands ``sustained_checks`` *consecutive* flagged evaluations
  before asking for a rollback, so one noisy window cannot unseat a
  good model;
* **shadow divergence** — the shadow worker reports per-sample
  ``|p_candidate - p_production|``; the guard keeps a rolling window
  and trips once the window holds at least ``divergence_min_samples``
  and its mean exceeds ``divergence_budget``.

All methods are called under the daemon's own locks; the guard itself
only needs to be consistent, not thread-safe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

__all__ = ["GuardConfig", "RollbackGuard", "DIVERGENCE_WINDOW"]

#: Most recent shadow samples whose mean |Δp| is held to the budget.
DIVERGENCE_WINDOW = 200


@dataclass(frozen=True)
class GuardConfig:
    """Budgets for drift-triggered rollback and shadow quarantine.

    The drift window, its minimum sample count and the PSI/KS trip
    levels are :mod:`repro.obs.drift` module constants.  The divergence
    window is :data:`DIVERGENCE_WINDOW` samples.
    """

    sustained_checks: int = 3
    divergence_budget: float = 0.15
    divergence_min_samples: int = 20

    def __post_init__(self) -> None:
        if self.sustained_checks < 1:
            raise ValueError("sustained_checks must be >= 1")
        if not 0.0 < self.divergence_budget <= 1.0:
            raise ValueError("divergence_budget must be in (0, 1]")
        if not 1 <= self.divergence_min_samples <= DIVERGENCE_WINDOW:
            raise ValueError(
                f"need {DIVERGENCE_WINDOW} >= divergence_min_samples >= 1"
            )


class RollbackGuard:
    """Accumulates drift flags and shadow divergences against budgets."""

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        self._consecutive_flags = 0
        self._divergences: deque[float] = deque(maxlen=DIVERGENCE_WINDOW)

    # -- production drift ------------------------------------------------

    def note_drift(self, flagged: bool) -> bool:
        """Record one monitor evaluation; ``True`` when drift is sustained."""
        if flagged:
            self._consecutive_flags += 1
        else:
            self._consecutive_flags = 0
        return self._consecutive_flags >= self.config.sustained_checks

    def reset_drift(self) -> None:
        """Forget drift history (called at every engine swap)."""
        self._consecutive_flags = 0

    # -- shadow divergence ----------------------------------------------

    def note_divergence(self, divergences) -> bool:
        """Record per-sample |Δp|; ``True`` when the budget is exceeded."""
        for value in divergences:
            self._divergences.append(float(value))
        if len(self._divergences) < self.config.divergence_min_samples:
            return False
        return self.divergence_mean() > self.config.divergence_budget

    def divergence_mean(self) -> float:
        """Mean |Δp| over the rolling window (NaN when empty)."""
        if not self._divergences:
            return math.nan
        return sum(self._divergences) / len(self._divergences)

    def divergence_count(self) -> int:
        """Number of samples currently in the divergence window."""
        return len(self._divergences)

    def reset_divergence(self) -> None:
        """Forget divergence history (called when the candidate changes)."""
        self._divergences.clear()
