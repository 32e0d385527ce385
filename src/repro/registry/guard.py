"""Deploy decisions: the drift rollback guard and the promote gate.

Pure bookkeeping, no threads and no IO.

* **production drift** — after each scored micro-batch the daemon
  reports the ``flagged`` verdict of the served version's
  :class:`~repro.obs.drift.DriftMonitor` (PSI/KS against the model's
  committed baseline, fed by the scorer that served the batch) to a
  :class:`RollbackGuard`; the guard demands ``sustained_checks``
  *consecutive* flagged evaluations before asking for a rollback, so
  one noisy window cannot unseat a good model.  It is called under the
  daemon's own locks and only needs to be consistent, not thread-safe.
* **candidate divergence** — :func:`gate_verdict` compares production's
  and a candidate's probabilities on one fixed dataset (``repro models
  promote vN --gate DATASET``).  A score depends only on (sample, model
  version), so the verdict is a number anyone can recompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuardConfig",
    "RollbackGuard",
    "DIVERGENCE_BUDGET",
    "GATE_MIN_SAMPLES",
    "gate_verdict",
]

#: Largest mean |p_candidate - p_production| a promote gate accepts.
DIVERGENCE_BUDGET = 0.15

#: Fewest gate samples whose mean |Δp| is held to the budget.
GATE_MIN_SAMPLES = 20


@dataclass(frozen=True)
class GuardConfig:
    """Budget for drift-triggered rollback.

    The drift window, its minimum sample count and the PSI/KS trip
    levels are :mod:`repro.obs.drift` module constants.
    """

    sustained_checks: int = 3

    def __post_init__(self) -> None:
        if self.sustained_checks < 1:
            raise ValueError("sustained_checks must be >= 1")


class RollbackGuard:
    """Counts consecutive drift flags against ``sustained_checks``."""

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        self._consecutive_flags = 0

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


def gate_verdict(production, candidate) -> dict:
    """Judge a candidate by its per-sample probabilities on a gate set.

    ``production`` and ``candidate`` are the two versions' probabilities
    for the same samples, in the same order.  Returns ``n``,
    ``mean_abs_dp`` (the mean |Δp|), ``budget``
    (:data:`DIVERGENCE_BUDGET`) and ``passed``: at least
    :data:`GATE_MIN_SAMPLES` samples and a mean within the budget.  A
    non-finite probability makes the mean NaN, which never passes.
    """
    production = np.asarray(production, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if production.shape != candidate.shape or production.ndim != 1:
        raise ValueError(
            f"gate needs two equal-length probability vectors, got "
            f"{production.shape} and {candidate.shape}"
        )
    n = int(production.size)
    mean = float(np.mean(np.abs(candidate - production))) if n else float("nan")
    return {
        "n": n,
        "mean_abs_dp": mean,
        "budget": DIVERGENCE_BUDGET,
        "passed": n >= GATE_MIN_SAMPLES and mean <= DIVERGENCE_BUDGET,
    }
