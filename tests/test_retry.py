"""Bounded retry budgets: the training LR backoff and the two delay tuples."""

import math

import numpy as np
import pytest

from repro import nn
from repro.core import LightCurveClassifier
from repro.core.training import TrainConfig, fit
from repro.nn.tensor import Tensor
from repro.runtime import NanBatchFault, TrainingDiverged
from repro.runtime.guards import RetryPolicy
from repro.serve.daemon import RESTART_DELAYS_S
from repro.serve.pool import RESPAWN_DELAYS_S


class TestGeometricValue:
    """Geometric backoff: RetryPolicy's LR decay and the delays' growth."""

    def test_growth_and_decay(self):
        # Decay: each recovery multiplies the learning rate by lr_backoff.
        policy = RetryPolicy(lr_backoff=0.5, min_lr=1e-9)
        assert policy.next_lr(1e-3) == 5e-4
        assert policy.next_lr(policy.next_lr(0.1)) == pytest.approx(0.025)
        # Growth: the daemon's restart waits double, the pool's respawn
        # waits grow by 1.5 per respawn.
        assert RESTART_DELAYS_S[1] == 2 * RESTART_DELAYS_S[0]
        for earlier, later in zip(RESPAWN_DELAYS_S, RESPAWN_DELAYS_S[1:]):
            assert later == pytest.approx(1.5 * earlier)

    def test_floor_clamps(self):
        policy = RetryPolicy(lr_backoff=0.1, min_lr=1e-6)
        assert policy.next_lr(1e-3) == pytest.approx(1e-4)
        assert policy.next_lr(5e-6) == 1e-6
        assert policy.next_lr(1e-6) == 1e-6

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_backs_the_training_lr_backoff(self):
        """RetryPolicy.next_lr is one backoff step, floored at min_lr."""
        policy = RetryPolicy(max_retries=3, lr_backoff=0.5, min_lr=1e-5)
        assert policy.next_lr(1e-3) == max(1e-3 * 0.5, 1e-5)
        assert policy.next_lr(1.5e-5) == 1e-5  # floored


class TestRetrySpec:
    """The budgets themselves: RetryPolicy's bounds and the two tuples."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -2},
            {"lr_backoff": 0.0},
            {"lr_backoff": -0.5},
            {"lr_backoff": 1.5},
            {"lr_backoff": math.inf},
            {"lr_backoff": math.nan},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delays_shape_without_jitter(self):
        assert RESTART_DELAYS_S == (0.05, 0.1)
        assert RESPAWN_DELAYS_S == tuple(0.05 * 1.5**k for k in range(7))
        assert len(RESPAWN_DELAYS_S) == 7

    def test_max_delay_caps_growth(self):
        # The pool's respawn waits stay under a second, so a full budget
        # of respawns costs under two seconds of sleeping.
        assert max(RESPAWN_DELAYS_S) < 1.0
        assert sum(RESPAWN_DELAYS_S) < 2.0
        assert max(RESTART_DELAYS_S) < 1.0

    def test_single_attempt_means_no_retries(self):
        """max_retries=0: the first divergence is fatal, nothing is retried."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 10)).astype(np.float32)
        y = (rng.random(32) > 0.5).astype(np.float32)
        model = LightCurveClassifier(
            input_dim=10, units=8, rng=np.random.default_rng(7)
        )
        bce = nn.BCEWithLogitsLoss()

        def loss_fn(module, inputs, target):
            return bce(module(Tensor(inputs[0])), target)

        with pytest.raises(TrainingDiverged) as excinfo:
            fit(
                model, [x], y, NanBatchFault(loss_fn, "all"),
                TrainConfig(epochs=2, batch_size=16, seed=0),
                retry_policy=RetryPolicy(max_retries=0),
            )
        assert excinfo.value.attempts == 0
