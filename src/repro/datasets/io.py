"""Dataset persistence: compressed ``.npz`` archives.

Writes go through the resilience runtime's atomic write-then-rename with
an embedded SHA-256 checksum, so a crash mid-save never leaves a
half-written archive and silent corruption (truncation, bit rot, partial
transfer) is caught at load time as a
:class:`~repro.runtime.errors.CorruptArtifactError`.  Loads additionally
validate array shapes and dtypes up front so a malformed archive fails
with a one-line description instead of deep inside the model.
"""

from __future__ import annotations

import os

import numpy as np

from ..runtime import CorruptArtifactError, atomic_savez, verified_load
from .sample import N_BANDS, SupernovaDataset

__all__ = ["save_dataset", "load_dataset", "validate_dataset_arrays"]

_FIELDS = (
    "pairs",
    "visit_mjd",
    "visit_band",
    "true_flux",
    "labels",
    "sn_types",
    "redshifts",
    "host_mag",
    "sn_offset",
    "peak_mjd",
)


def save_dataset(dataset: SupernovaDataset, path: str | os.PathLike) -> None:
    """Write a dataset to a compressed, checksummed npz archive atomically."""
    arrays = {name: getattr(dataset, name) for name in _FIELDS}
    atomic_savez(path, arrays, compressed=True)


def validate_dataset_arrays(
    arrays: dict[str, np.ndarray], origin: str = "dataset"
) -> None:
    """Check shapes/dtypes of raw dataset arrays before construction.

    Verifies the pair-stamp layout ``(N, V, 2, S, S)`` with square
    stamps, a visit count that is a whole number of ``N_BANDS``-band
    epochs, matching per-visit and per-sample row counts, numeric dtypes,
    and binary labels.  Raises :class:`ValueError` with a descriptive,
    single-line message on the first violation.  NaN/Inf entries are
    accepted: degraded cutouts (missing visits, masked pixels) are
    legitimate *serving* inputs.
    """
    pairs = arrays["pairs"]
    if pairs.ndim != 5 or pairs.shape[2] != 2:
        raise ValueError(
            f"{origin}: 'pairs' must be (N, V, 2, S, S) reference/observation "
            f"stamps, got shape {pairs.shape}"
        )
    if pairs.shape[3] != pairs.shape[4]:
        raise ValueError(
            f"{origin}: stamps must be square, got {pairs.shape[3]}x{pairs.shape[4]}"
        )
    n, n_visits = pairs.shape[:2]
    if n_visits % N_BANDS != 0:
        raise ValueError(
            f"{origin}: visit count {n_visits} is not a multiple of the "
            f"{N_BANDS}-band filter set (epochs x bands layout required)"
        )
    for name in ("visit_mjd", "visit_band", "true_flux"):
        if arrays[name].shape != (n, n_visits):
            raise ValueError(
                f"{origin}: '{name}' shape {arrays[name].shape} does not match "
                f"the (N={n}, V={n_visits}) visit grid"
            )
    for name in ("labels", "redshifts", "host_mag", "peak_mjd", "sn_types"):
        if arrays[name].shape != (n,):
            raise ValueError(
                f"{origin}: '{name}' shape {arrays[name].shape} does not match "
                f"N={n} samples"
            )
    if arrays["sn_offset"].shape != (n, 2):
        raise ValueError(
            f"{origin}: 'sn_offset' shape {arrays['sn_offset'].shape} must be (N, 2)"
        )
    for name in ("pairs", "visit_mjd", "true_flux", "redshifts", "host_mag", "peak_mjd"):
        if not np.issubdtype(arrays[name].dtype, np.floating):
            raise ValueError(
                f"{origin}: '{name}' must be floating point, got dtype {arrays[name].dtype}"
            )
    for name in ("visit_band", "labels"):
        if not np.issubdtype(arrays[name].dtype, np.integer):
            raise ValueError(
                f"{origin}: '{name}' must be integer, got dtype {arrays[name].dtype}"
            )
    labels = arrays["labels"]
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError(f"{origin}: 'labels' must be binary (0=non-Ia, 1=Ia)")
    band = arrays["visit_band"]
    if band.size and (band.min() < 0 or band.max() >= N_BANDS):
        raise ValueError(
            f"{origin}: 'visit_band' entries must be in [0, {N_BANDS}), "
            f"got range [{band.min()}, {band.max()}]"
        )


def load_dataset(path: str | os.PathLike, validate: bool = True) -> SupernovaDataset:
    """Load a dataset saved by :func:`save_dataset`.

    Raises :class:`~repro.runtime.errors.CorruptArtifactError` when the
    archive is truncated, unreadable, fails its checksum, or is missing
    fields; with ``validate`` (the default) array shapes and dtypes are
    checked with descriptive errors before the container is built.
    """
    arrays = verified_load(path)
    missing = [name for name in _FIELDS if name not in arrays]
    if missing:
        raise CorruptArtifactError(path, f"missing fields {missing}")
    if validate:
        validate_dataset_arrays(arrays, origin=os.fspath(path))
    return SupernovaDataset(**{name: arrays[name] for name in _FIELDS})
