"""Light-curve feature construction (Section 4, Fig. 6).

The classification network consumes a feature vector holding, per band,
the (estimated or true) flux and the observation date.  A single epoch
therefore yields the 10-dimensional vector of the paper; ``k`` epochs
yield ``10 k`` dimensions.

Normalisation (identical for true and estimated fluxes so the classifier
and the joint model see the same feature space):

* fluxes pass through the signed log ``sgn(f) log10(|f| + 1)`` — the same
  compression the CNN applies to pixels;
* dates are centred on the mean date of the visits used and scaled by a
  characteristic light-curve timescale (50 days).
"""

from __future__ import annotations

import numpy as np

from ..datasets import N_BANDS, SupernovaDataset
from ..photometry import signed_log10

__all__ = [
    "DATE_SCALE_DAYS",
    "features_from_arrays",
    "masked_features_from_arrays",
    "ground_truth_features",
    "windowed_epoch_features",
    "dataset_windowed_features",
    "FLUX_FEATURE_DIM",
]

DATE_SCALE_DAYS = 50.0
FLUX_FEATURE_DIM = 2  # (flux, date) per band per epoch


def _as_float(a: np.ndarray) -> np.ndarray:
    """Floating view of ``a``: float32/float64 pass through untouched
    (the serving path stays single-precision end to end), anything else
    — integer or bool flux/date arrays — is cast to float32, matching
    the float32 dtype policy of the rest of the pipeline."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(np.float32)


def features_from_arrays(
    flux: np.ndarray,
    mjd: np.ndarray,
    epochs: int | list[int] = 1,
    n_epochs_total: int | None = None,
) -> np.ndarray:
    """Build classifier features from per-visit flux and date arrays.

    Parameters
    ----------
    flux:
        (N, V) supernova fluxes, epoch-major visit order (V = E * 5).
    mjd:
        (N, V) observation dates, same layout.
    epochs:
        Which epochs to include — an epoch count ``k`` (uses the first
        ``k``) or an explicit list of epoch indices.
    n_epochs_total:
        Total epochs in the visit axis; inferred from V when omitted.

    Returns
    -------
    (N, 10 * len(epochs)) float32 feature matrix: for each requested
    epoch, 5 signed-log fluxes followed by 5 scaled dates.  This is
    :func:`masked_features_from_arrays` with every visit usable, bit
    for bit.
    """
    return masked_features_from_arrays(
        flux, mjd, np.ones(np.shape(flux), dtype=bool), epochs, n_epochs_total
    )


def masked_features_from_arrays(
    flux: np.ndarray,
    mjd: np.ndarray,
    usable: np.ndarray,
    epochs: int | list[int] = 1,
    n_epochs_total: int | None = None,
    prior_flux_feature: np.ndarray | None = None,
) -> np.ndarray:
    """Classifier features for samples with missing or rejected visits.

    The one feature builder (:func:`features_from_arrays` is this call
    with every visit usable): ``usable`` is an (N, V) boolean mask
    marking visits whose flux estimate can be trusted.  Masked entries never touch the arithmetic — their flux and
    date values may be NaN —

    * the flux feature of a masked visit is imputed from
      ``prior_flux_feature``, the per-band mean signed-log flux of the
      training set (zeros — "no detection" — when omitted);
    * the date features are centred on the mean date of the *usable*
      visits only, and masked dates sit at 0, the centre of the window.

    A sample with no usable visit at all degenerates to the pure prior
    vector, so downstream scores fall back to the training-set base rate
    instead of NaN.  Returns the (N, 10 * len(epochs)) float32 matrix.
    """
    flux = _as_float(flux)
    mjd = _as_float(mjd)
    usable = np.asarray(usable, dtype=bool)
    if flux.shape != mjd.shape or flux.ndim != 2:
        raise ValueError("flux and mjd must both be (N, V)")
    if usable.shape != flux.shape:
        raise ValueError(
            f"usable mask shape {usable.shape} does not match flux {flux.shape}"
        )
    n_visits = flux.shape[1]
    total = n_epochs_total or n_visits // N_BANDS
    if total * N_BANDS != n_visits:
        raise ValueError(f"visit axis {n_visits} is not {total} epochs x {N_BANDS} bands")
    if prior_flux_feature is None:
        prior_flux_feature = np.zeros(N_BANDS)
    prior_flux_feature = np.asarray(prior_flux_feature, dtype=float)
    if prior_flux_feature.shape != (N_BANDS,):
        raise ValueError(f"prior_flux_feature must be ({N_BANDS},)")

    epoch_list = list(range(epochs)) if isinstance(epochs, int) else list(epochs)
    if not epoch_list:
        raise ValueError("need at least one epoch")
    for e in epoch_list:
        if not 0 <= e < total:
            raise IndexError(f"epoch {e} out of range [0, {total})")

    visit_idx = np.concatenate(
        [np.arange(e * N_BANDS, (e + 1) * N_BANDS) for e in epoch_list]
    )
    f = flux[:, visit_idx]
    d = mjd[:, visit_idx]
    m = usable[:, visit_idx]

    # Per-band prior for every selected visit (epoch-major layout),
    # matched to the flux dtype so imputation never upcasts the batch.
    prior = prior_flux_feature[visit_idx % N_BANDS].astype(flux.dtype)
    f_safe = np.where(m, f, 0.0)  # keep NaN/Inf of masked entries out of the math
    d_safe = np.where(m, d, 0.0)
    f_feat = np.where(m, signed_log10(f_safe), prior[None, :])

    # Centre dates on the usable visits only; masked dates sit at 0.
    n_usable = m.sum(axis=1, keepdims=True)
    d_sum = d_safe.sum(axis=1, keepdims=True)
    d_mean = np.divide(d_sum, n_usable, out=np.zeros_like(d_sum), where=n_usable > 0)
    d_feat = np.where(m, (d_safe - d_mean) / DATE_SCALE_DAYS, 0.0)

    blocks = []
    n_sel = len(epoch_list)
    f_blocks = f_feat.reshape(-1, n_sel, N_BANDS)
    d_blocks = d_feat.reshape(-1, n_sel, N_BANDS)
    for k in range(n_sel):
        blocks.append(f_blocks[:, k])
        blocks.append(d_blocks[:, k])
    return np.concatenate(blocks, axis=1).astype(np.float32)


def ground_truth_features(
    dataset: SupernovaDataset, epochs: int | list[int] = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Features from the *true* light curve (Figs. 9-10 experiments).

    Returns ``(features, labels)``.
    """
    features = features_from_arrays(
        dataset.true_flux, dataset.visit_mjd, epochs, dataset.n_epochs
    )
    return features, dataset.labels.astype(np.float32)


def windowed_epoch_features(
    flux: np.ndarray,
    mjd: np.ndarray,
    labels: np.ndarray,
    k_epochs: int,
    n_epochs_total: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All contiguous ``k``-epoch windows as independent samples.

    The paper "split each sample into 4 subsets" to simulate single-epoch
    observations (Section 5): a sample with E epochs yields E single-epoch
    sub-samples.  Generalised to k-epoch windows, a sample yields
    ``E - k + 1`` sub-samples of ``10 k`` features each.  Returns the
    stacked ``(features, labels)``.
    """
    flux = np.asarray(flux)
    total = n_epochs_total or flux.shape[1] // N_BANDS
    if not 1 <= k_epochs <= total:
        raise ValueError(f"k_epochs must be in [1, {total}]")
    features, ys = [], []
    for start in range(total - k_epochs + 1):
        window = list(range(start, start + k_epochs))
        features.append(features_from_arrays(flux, mjd, window, total))
        ys.append(np.asarray(labels, dtype=np.float32))
    return np.concatenate(features), np.concatenate(ys)


def dataset_windowed_features(
    dataset: SupernovaDataset, k_epochs: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`windowed_epoch_features` over a dataset's true light curves."""
    return windowed_epoch_features(
        dataset.true_flux,
        dataset.visit_mjd,
        dataset.labels,
        k_epochs,
        dataset.n_epochs,
    )
