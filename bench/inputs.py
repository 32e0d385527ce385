"""Seeded inputs: the saved model, clean and degraded stamp batches, request bodies.

Everything here is a pure function of the generator it is handed, so a
seed reproduces the model weights and every byte of traffic.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import SupernovaPipeline
from repro.datasets import N_BANDS
from repro.runtime.faults import DropBand, NaNPixels, SaturateRegion
from repro.serve import FluxPrior, InferenceEngine

#: Stamp side served by the survey feed; the CNN centre-crops it to INPUT_SIZE.
STAMP = 65
#: The paper's CNN input size (Table 1).
INPUT_SIZE = 60
#: Samples per classify call and per training step.
BATCH = 64
#: Distinct batches a workload cycles through.
N_BATCHES = 4
#: Visits per sample: one epoch in each of the five bands (the paper's setting).
VISITS = N_BANDS

#: Background noise of both stamp channels, in counts.
NOISE = 30.0
#: Peak counts of the point source.  Kept below the repair stage's
#: 10-sigma clip threshold on the difference image (about 420 counts at
#: this noise) so that clean traffic never reaches the median filter.
AMPLITUDE = (50.0, 150.0)
#: Excess counts of an injected hot pixel: far above the clip threshold,
#: far below saturation, so repair sigma-clips it.
HOT_PIXEL = 3000.0


def save_model(directory: Path, seed: int) -> None:
    """Write an untrained paper-configuration model (weights drawn from ``seed``)."""
    pipeline = SupernovaPipeline(input_size=INPUT_SIZE, epochs_used=1, seed=seed)
    InferenceEngine(pipeline, prior=FluxPrior.neutral()).save(str(directory))


def clean_batch(rng: np.random.Generator, n: int = BATCH) -> tuple[np.ndarray, np.ndarray]:
    """``(n, VISITS, 2, STAMP, STAMP)`` float32 pairs and ``(n, VISITS)`` float32 dates.

    Reference and observation carry Gaussian noise; the observation adds
    a Gaussian point source of random peak and sub-stamp offset.
    """
    pairs = rng.standard_normal((n, VISITS, 2, STAMP, STAMP), dtype=np.float32)
    pairs *= np.float32(NOISE)
    peak = rng.uniform(*AMPLITUDE, size=(n, VISITS, 1, 1))
    centre = STAMP // 2 + rng.uniform(-2.0, 2.0, size=(n, VISITS, 2, 1, 1))
    axis = np.arange(STAMP, dtype=np.float64)
    rows = (axis[:, None] - centre[:, :, 0]) ** 2
    cols = (axis[None, :] - centre[:, :, 1]) ** 2
    pairs[:, :, 1] += (peak * np.exp(-(rows + cols) / (2 * 2.5**2))).astype(np.float32)
    mjd = 57000.0 + rng.uniform(0.0, 300.0, size=(n, 1)) + 0.02 * np.arange(VISITS)
    return pairs, mjd.astype(np.float32)


def degrade(pairs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A copy with a seeded quarter of the samples damaged, four kinds in equal numbers.

    The kinds are a dropped band (one visit missing outright), 0.5% NaN
    pixels and a saturated 4x4 block per visit (both inpainted), and
    three isolated hot pixels per observation stamp (sigma-clipped).
    Fixed counts per kind keep the repair work the same for every seed.
    """
    out = pairs.copy()
    n = len(out)
    chosen = rng.permutation(n)[: n // 4]
    groups = np.array_split(chosen, 4)
    for i in groups[0]:
        out[i : i + 1] = DropBand(int(rng.integers(N_BANDS)))(out[i : i + 1])
    nan_seed, saturate_seed = (int(s) for s in rng.integers(1 << 31, size=2))
    out[groups[1]] = NaNPixels(0.005, seed=nan_seed)(out[groups[1]])
    out[groups[2]] = SaturateRegion(4, seed=saturate_seed)(out[groups[2]])
    for i in groups[3]:
        for visit in range(out.shape[1]):
            rows, cols = rng.integers(2, STAMP - 2, size=(2, 3))
            out[i, visit, 1, rows, cols] += np.float32(HOT_PIXEL)
    return out


def request_body(pairs: np.ndarray, mjd: np.ndarray) -> bytes:
    """The ``/classify`` JSON body of one ``(VISITS, 2, S, S)`` sample."""
    return json.dumps({"pairs": pairs.tolist(), "mjd": mjd.tolist()}).encode()
