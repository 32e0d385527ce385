"""Resilience runtime: checkpoints, divergence guards, fault isolation.

This package makes the repo's three long-running workloads — dataset
builds, flux-CNN training and classifier training — survivable:

* :mod:`repro.runtime.checkpoint` — atomic write-then-rename ``.npz``
  persistence with embedded checksums, plus :class:`TrainCheckpoint`
  snapshots that let ``fit`` resume bit-identically after a kill;
* :mod:`repro.runtime.guards` — NaN/Inf detection on losses and
  gradients with a bounded learning-rate-backoff :class:`RetryPolicy`;
* :mod:`repro.runtime.report` — per-sample quarantine records and the
  :class:`BuildReport` emitted by the dataset builder;
* :mod:`repro.runtime.faults` — deterministic fault injection used by
  the test-suite (and handy for chaos-testing deployments), including
  the serving-daemon chaos kit (poison batches, wedged workers, slow
  clients, malformed bodies, burst schedules);
* :mod:`repro.runtime.errors` — the structured error types the CLI maps
  to exit codes.
"""

from .checkpoint import (
    CHECKSUM_KEY,
    TrainCheckpoint,
    array_checksum,
    atomic_savez,
    atomic_write_json,
    file_sha256,
    pack_json,
    unpack_json,
    verified_load,
)
from .errors import BuildAborted, CorruptArtifactError, TrainingDiverged
from .faults import (
    BurstSchedule,
    DropBand,
    FailBatch,
    FailSlot,
    InjectedFault,
    InputCorruption,
    KillSwitch,
    NaNPixels,
    NanBatchFault,
    SaturateRegion,
    ShiftScores,
    SimulatedCrash,
    TruncateCutout,
    WedgeBatch,
    crash_on_nth_sample,
    malformed_bodies,
    raise_on_nth_sample,
    send_slow_request,
    truncate_file,
)
from .guards import RetryPolicy, grads_are_finite, loss_is_finite
from .report import BuildReport, QuarantineRecord

__all__ = [
    "CHECKSUM_KEY",
    "array_checksum",
    "atomic_savez",
    "atomic_write_json",
    "file_sha256",
    "verified_load",
    "pack_json",
    "unpack_json",
    "TrainCheckpoint",
    "CorruptArtifactError",
    "TrainingDiverged",
    "BuildAborted",
    "RetryPolicy",
    "loss_is_finite",
    "grads_are_finite",
    "BuildReport",
    "QuarantineRecord",
    "InjectedFault",
    "SimulatedCrash",
    "raise_on_nth_sample",
    "crash_on_nth_sample",
    "FailSlot",
    "NanBatchFault",
    "KillSwitch",
    "truncate_file",
    "InputCorruption",
    "DropBand",
    "NaNPixels",
    "SaturateRegion",
    "TruncateCutout",
    "FailBatch",
    "ShiftScores",
    "WedgeBatch",
    "BurstSchedule",
    "malformed_bodies",
    "send_slow_request",
]
