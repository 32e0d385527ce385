"""Hardened inference for production serving (degraded-input tolerance).

The training stack assumes clean (reference, observation) pairs in all
five bands; real survey traffic does not oblige.  This package wraps the
fitted :class:`~repro.core.pipeline.SupernovaPipeline` in an
:class:`InferenceEngine` that validates, repairs, masks and — when all
else fails — imputes, so every sample comes back as a
:class:`PredictionResult` instead of a traceback:

* :mod:`repro.serve.validation` — per-visit :class:`InputDiagnostics`
  (shape / dtype / finite-pixel / saturation checks), median inpainting
  and cosmic-ray sigma-clipping;
* :mod:`repro.serve.engine` — band masking over the light-curve feature
  vector, per-band :class:`FluxPrior` imputation, confidence downgrades
  and the strict-mode :class:`DegradedInputError` contract;
* :mod:`repro.serve.daemon` — the persistent ``repro serve`` HTTP
  daemon: admission control, adaptive micro-batching, per-request
  deadlines, poison-batch isolation, a wedge-detecting watchdog and
  graceful drain, with ``/healthz`` and Prometheus ``/metrics``.
"""

from .daemon import DaemonConfig, ServingDaemon
from .engine import DegradedInputError, FluxPrior, InferenceEngine, PredictionResult
from .pool import (
    PoolBrokenError,
    PoolConfig,
    PoolError,
    ScoringPool,
    WorkerCrashError,
)
from .validation import (
    SATURATION_LEVEL,
    InputDiagnostics,
    clip_difference_outliers,
    diagnose_and_repair,
    diagnose_and_repair_batch,
    inpaint_bad_pixels,
)

__all__ = [
    "InferenceEngine",
    "PredictionResult",
    "FluxPrior",
    "DegradedInputError",
    "ServingDaemon",
    "DaemonConfig",
    "ScoringPool",
    "PoolConfig",
    "PoolError",
    "PoolBrokenError",
    "WorkerCrashError",
    "InputDiagnostics",
    "diagnose_and_repair",
    "diagnose_and_repair_batch",
    "inpaint_bad_pixels",
    "clip_difference_outliers",
    "SATURATION_LEVEL",
]
