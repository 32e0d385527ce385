"""Divergence detection and bounded-retry policy for training runs.

The training loop calls :func:`loss_is_finite` / :func:`grads_are_finite`
every step; when either trips, it rolls back to the last good snapshot
and asks the :class:`RetryPolicy` for a decayed learning rate.  After
``max_retries`` rollbacks the run raises
:class:`~repro.runtime.errors.TrainingDiverged`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["RetryPolicy", "loss_is_finite", "grads_are_finite"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to recover from divergence, and at what learning rate.

    Each recovery multiplies the optimiser learning rate by
    ``lr_backoff`` (never going below ``min_lr``); ``max_retries`` caps
    the total number of rollbacks for the whole run.
    """

    max_retries: int = 3
    lr_backoff: float = 0.5
    min_lr: float = 1e-7

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError("lr_backoff must be in (0, 1]")

    def next_lr(self, lr: float) -> float:
        """Learning rate to use after one more divergence recovery."""
        return max(lr * self.lr_backoff, self.min_lr)


def loss_is_finite(value: float) -> bool:
    """True when a scalar loss is neither NaN nor infinite."""
    return bool(np.isfinite(value))


def grads_are_finite(parameters: Iterable) -> bool:
    """True when every non-``None`` parameter gradient is fully finite."""
    for param in parameters:
        grad = getattr(param, "grad", None)
        if grad is not None and not np.all(np.isfinite(grad)):
            return False
    return True
