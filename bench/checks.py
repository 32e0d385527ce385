"""Output checks: every scored sample against the reference scorer.

A sample's wire record is ``(probability, degraded, usable_bands)``, the
fields ``repro classify`` and ``repro serve`` promise.  Probabilities
are compared at the daemon's round-6 wire precision when output and
reference scored the same batch shape.  Daemon answers are scored in
micro-batches whose composition depends on timing; float32 GEMMs round
differently per batch shape, which moved probabilities of the steepest
untrained models by up to 3.6e-6 over 40 seeds, so those are compared
with :data:`MICROBATCH_TOL` — still far below the gap between two
samples' scores or two models'.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Largest accepted |probability - reference|: one round-6 unit plus slack.
WIRE_TOL = 1.5e-6
#: The same for outputs scored in a micro-batch the reference did not replay.
MICROBATCH_TOL = 1e-4

Wire = tuple[float, bool, tuple[str, ...]]


def from_result(result: object) -> Wire:
    """Wire record of a :class:`repro.serve.PredictionResult`."""
    return (
        float(result.probability),
        bool(result.degraded),
        tuple(result.usable_bands),
    )


def from_payload(payload: dict) -> Wire:
    """Wire record of a daemon ``/classify`` 200 response body."""
    result = payload["result"]
    return (
        float(result["probability"]),
        bool(result["degraded"]),
        tuple(result["usable_bands"]),
    )


def mismatched(
    outputs: Sequence[Wire], references: Sequence[Wire], tol: float = WIRE_TOL
) -> list[int]:
    """Indices whose output differs from its reference (length mismatch counts all)."""
    if len(outputs) != len(references):
        return list(range(max(len(outputs), len(references))))
    return [
        i
        for i, ((p, degraded, bands), (ref_p, ref_degraded, ref_bands)) in enumerate(
            zip(outputs, references)
        )
        if not (math.isfinite(p) and abs(p - ref_p) <= tol)
        or degraded != ref_degraded
        or bands != ref_bands
    ]
