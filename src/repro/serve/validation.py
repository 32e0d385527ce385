"""Per-visit input validation and repair for the serving path.

A production classifier sees cutouts the training loop never does:
missing visits, NaN and saturated pixels, cosmic-ray hits, and images
whose tail rows never arrived.  This module turns one (reference,
observation) stamp pair into a :class:`InputDiagnostics` verdict and,
where the damage is below the repair budget, a cleaned copy:

* non-finite and saturated pixels are *inpainted* with the median of
  their finite neighbourhood (falling back to the channel median);
* sharp outliers on the difference image — cosmic-ray morphology, high
  above the robust noise but unsupported by their neighbours the way a
  PSF-spread source would be — are sigma-clipped back to the local
  background.

Visits whose bad-pixel fraction exceeds the budget, or that are missing
outright (all-NaN channel, non-finite date), are marked *rejected*; the
engine masks them out of the feature vector instead of serving garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..photometry import GRIZY

__all__ = [
    "InputDiagnostics",
    "diagnose_and_repair",
    "diagnose_and_repair_batch",
    "inpaint_bad_pixels",
    "clip_difference_outliers",
    "SATURATION_LEVEL",
    "MAX_REPAIR_FRACTION",
    "CLIP_SIGMA",
    "CLIP_SUPPORT_RATIO",
    "INPAINT_WINDOW",
]

#: Pixels at or above this count are treated as saturated (full well).
SATURATION_LEVEL = 30000.0

#: Largest fraction of bad (non-finite + saturated) pixels per visit
#: that inpainting may bridge; beyond it the visit is rejected and
#: masked instead.
MAX_REPAIR_FRACTION = 0.25

#: Difference-image pixels more than this many robust sigmas above the
#: median are outlier candidates.
CLIP_SIGMA = 10.0

#: An outlier candidate is clipped only when its 3x3 neighbourhood
#: median stays below this fraction of its own value — a PSF-spread
#: real source keeps neighbour support well above it, an isolated
#: cosmic-ray pixel does not.
CLIP_SUPPORT_RATIO = 0.2

#: Half-width of the neighbourhood used for median inpainting.
INPAINT_WINDOW = 2


@dataclass
class InputDiagnostics:
    """What validation found (and fixed) in one visit's stamp pair.

    ``bad_fraction`` is the pre-repair fraction of unusable pixels over
    both channels; ``repaired`` means the visit was cleaned and kept,
    ``rejected`` that it was masked out of the feature vector.
    """

    visit: int
    band: str
    n_pixels: int
    n_nonfinite: int = 0
    n_saturated: int = 0
    n_clipped: int = 0
    bad_fraction: float = 0.0
    repaired: bool = False
    rejected: bool = False
    reason: str = ""

    @property
    def clean(self) -> bool:
        """True when the visit needed no intervention at all."""
        return not (self.repaired or self.rejected)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the classify CLI stream)."""
        return {
            "visit": self.visit,
            "band": self.band,
            "n_nonfinite": self.n_nonfinite,
            "n_saturated": self.n_saturated,
            "n_clipped": self.n_clipped,
            "bad_fraction": round(self.bad_fraction, 6),
            "repaired": self.repaired,
            "rejected": self.rejected,
            "reason": self.reason,
        }


def inpaint_bad_pixels(image: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Replace flagged pixels with the median of their good neighbours.

    Works in place on a float copy and returns it.  Each bad pixel takes
    the median of the good pixels inside a ``(2*INPAINT_WINDOW+1)``
    square around it; pixels with no good neighbour fall back to the
    image's global good-pixel median (0 when nothing survives).
    """
    out = np.asarray(image, dtype=np.float32).copy()
    bad = np.asarray(bad, dtype=bool)
    if not bad.any():
        return out
    good = ~bad
    fallback = float(np.median(out[good])) if good.any() else 0.0
    rows, cols = np.nonzero(bad)
    side = out.shape[-1]
    for r, c in zip(rows, cols):
        r0, r1 = max(0, r - INPAINT_WINDOW), min(side, r + INPAINT_WINDOW + 1)
        c0, c1 = max(0, c - INPAINT_WINDOW), min(side, c + INPAINT_WINDOW + 1)
        patch = out[r0:r1, c0:c1]
        patch_good = good[r0:r1, c0:c1]
        out[r, c] = float(np.median(patch[patch_good])) if patch_good.any() else fallback
    return out


def clip_difference_outliers(
    reference: np.ndarray, observation: np.ndarray
) -> tuple[np.ndarray, int]:
    """Sigma-clip cosmic-ray-like pixels off the observation stamp.

    Outliers are found on the *difference* image (observation minus
    reference): a pixel must sit :data:`CLIP_SIGMA` robust sigmas above
    the median difference **and** lack neighbourhood support (see
    :data:`CLIP_SUPPORT_RATIO`), which spares the
    PSF-spread supernova itself.  Clipped pixels are pulled back to the
    reference plus the local median difference.  Returns the repaired
    observation and the number of clipped pixels.
    """
    diff = observation - reference
    med = float(np.median(diff))
    sigma = 1.4826 * float(np.median(np.abs(diff - med)))
    if sigma <= 0:
        return observation.copy(), 0
    local = ndimage.median_filter(diff, size=3, mode="nearest")
    excess = diff - med
    candidates = excess > CLIP_SIGMA * sigma
    unsupported = (local - med) < CLIP_SUPPORT_RATIO * excess
    outliers = candidates & unsupported
    n = int(outliers.sum())
    repaired = observation.copy()
    if n:
        repaired[outliers] = reference[outliers] + local[outliers]
    return repaired, n


def diagnose_and_repair(
    pair: np.ndarray, visit: int
) -> tuple[np.ndarray, InputDiagnostics]:
    """Validate one ``(2, S, S)`` stamp pair; repair or reject it.

    Returns ``(repaired_pair, diagnostics)``.  The repaired pair is
    always finite when the visit was kept; when ``rejected`` its content
    is unspecified and the caller must mask the visit.
    """
    pair = np.asarray(pair, dtype=np.float32)
    band = GRIZY[visit % len(GRIZY)].name
    n_pixels = int(pair[0].size)
    diag = InputDiagnostics(visit=visit, band=band, n_pixels=n_pixels)

    finite = np.isfinite(pair)
    saturated = finite & (pair >= SATURATION_LEVEL)
    bad = ~finite | saturated
    diag.n_nonfinite = int((~finite).sum())
    diag.n_saturated = int(saturated.sum())
    diag.bad_fraction = float(bad.sum() / pair.size)

    # A channel with nothing usable in it means the visit never arrived.
    for channel in range(2):
        if bad[channel].all():
            diag.rejected = True
            diag.reason = (
                "reference" if channel == 0 else "observation"
            ) + " channel entirely unusable (missing visit)"
            return pair, diag
    if diag.bad_fraction > MAX_REPAIR_FRACTION:
        diag.rejected = True
        diag.reason = (
            f"bad-pixel fraction {diag.bad_fraction:.3f} exceeds repair "
            f"budget {MAX_REPAIR_FRACTION:.3f}"
        )
        return pair, diag

    repaired = pair
    if bad.any():
        repaired = np.stack(
            [
                inpaint_bad_pixels(pair[ch], bad[ch]) for ch in range(2)
            ]
        )
        diag.repaired = True
        diag.reason = "inpainted non-finite/saturated pixels"

    obs, n_clipped = clip_difference_outliers(repaired[0], repaired[1])
    if n_clipped:
        repaired = np.stack([repaired[0], obs])
        diag.n_clipped = n_clipped
        diag.repaired = True
        diag.reason = (diag.reason + "; " if diag.reason else "") + (
            f"sigma-clipped {n_clipped} difference outlier(s)"
        )
    return repaired, diag


def _median_rows(a: np.ndarray, overwrite_input: bool = False) -> np.ndarray:
    """Median of each ``a[i]``, equal in value to ``np.median`` over axes 1+.

    For an odd row width the median is the single order statistic
    ``n // 2``, selected by one single-kth partition.  ``np.median``
    also asks for position ``-1`` (its NaN probe), and numpy 2.x runs
    only a single-kth partition on its SIMD selection path, so this is
    several times faster.  NaN is probed with a row ``max`` instead: a
    row holding NaN still yields NaN.  Even widths need two order
    statistics and go to ``np.median`` unchanged.  The two partitions
    may break a tie between -0.0 and +0.0 differently, so a zero
    median may differ in sign.  With ``overwrite_input`` the rows are
    partitioned in place.
    """
    n = int(np.prod(a.shape[1:]))
    if n % 2 == 0:
        return np.median(
            a, axis=tuple(range(1, a.ndim)), overwrite_input=overwrite_input
        )
    k = n // 2
    rows = a.reshape(a.shape[0], n)
    if overwrite_input:
        rows.partition(k, axis=1)
    else:
        rows = np.partition(rows, k, axis=1)
    med = rows[:, k].copy()
    med[np.isnan(rows.max(axis=1))] = np.nan
    return med


def diagnose_and_repair_batch(
    pairs: np.ndarray, visits: np.ndarray
) -> tuple[np.ndarray, list[InputDiagnostics], np.ndarray]:
    """Vectorised :func:`diagnose_and_repair` over a flat visit batch.

    ``pairs`` is ``(M, 2, S, S)`` — the serving engine's ``(N, V)`` axes
    flattened — and ``visits`` the ``(M,)`` visit index of each pair.
    Returns ``(repaired, diagnostics, kept)``: the float32 repaired
    pairs (rejected entries keep their original content), one
    :class:`InputDiagnostics` per pair, and the boolean keep mask.

    The result matches the per-visit loop bit for bit: diagnosis masks
    (for the visits a per-visit ``max``/``min`` cannot clear) and
    sigma-clipping are computed with whole-batch array ops (the
    median filter runs with a size-1 footprint on the batch axis, so no
    statistic crosses visits), while the rare flagged visits are
    inpainted through the same :func:`inpaint_bad_pixels` the scalar
    path uses.
    """
    pairs = np.asarray(pairs, dtype=np.float32)
    if pairs.ndim != 4 or pairs.shape[1] != 2:
        raise ValueError(f"expected (M, 2, S, S) pairs, got shape {pairs.shape}")
    visits = np.asarray(visits)
    if visits.shape != (pairs.shape[0],):
        raise ValueError(
            f"visits shape {visits.shape} does not match batch {pairs.shape[0]}"
        )
    m = pairs.shape[0]
    n_pixels = int(pairs[0, 0].size)
    pair_size = 2 * n_pixels

    # Gate the masks on two reductions per visit: NaN propagates through
    # both, only ``min`` sees -inf, and +inf or a saturated pixel pushes
    # ``max`` to the level.  A visit passing both has no bad pixel, so
    # its counts are zero and it is kept; the six full-size masks below
    # are built for the other visits only.
    clean = (pairs.max(axis=(1, 2, 3)) < SATURATION_LEVEL) & (
        pairs.min(axis=(1, 2, 3)) > -np.inf
    )
    dirty_idx = np.flatnonzero(~clean)
    n_nonfinite = np.zeros(m, dtype=np.int64)
    n_saturated = np.zeros(m, dtype=np.int64)
    bad_count = np.zeros(m, dtype=np.int64)
    channel_dead = np.zeros((m, 2), dtype=bool)
    bad = None
    if dirty_idx.size:
        dirty = pairs[dirty_idx]
        finite = np.isfinite(dirty)
        saturated = finite & (dirty >= SATURATION_LEVEL)
        bad = ~finite | saturated
        n_nonfinite[dirty_idx] = (~finite).sum(axis=(1, 2, 3))
        n_saturated[dirty_idx] = saturated.sum(axis=(1, 2, 3))
        bad_count[dirty_idx] = bad.sum(axis=(1, 2, 3))
        channel_dead[dirty_idx] = bad.all(axis=(2, 3))
    bad_fraction = bad_count / pair_size
    missing = channel_dead.any(axis=1)
    over_budget = ~missing & (bad_fraction > MAX_REPAIR_FRACTION)
    kept = ~missing & ~over_budget

    repaired = pairs.copy()
    inpainted = kept & (bad_count > 0)
    # ``bad`` rows follow dirty_idx; every inpainted visit is dirty.
    for j in np.flatnonzero(inpainted[dirty_idx]):
        i = dirty_idx[j]
        for channel in range(2):
            repaired[i, channel] = inpaint_bad_pixels(
                pairs[i, channel], bad[j, channel]
            )

    # Batched sigma-clip of every kept visit (see clip_difference_outliers).
    n_clipped = np.zeros(m, dtype=np.int64)
    kept_idx = np.flatnonzero(kept)
    if kept_idx.size:
        # With every visit kept, views of ``repaired`` replace the copies.
        rows = slice(None) if kept_idx.size == m else kept_idx
        reference = repaired[rows, 0]
        observation = repaired[rows, 1]
        diff = observation - reference
        med = _median_rows(diff)
        excess = diff - med[:, None, None]
        # |excess| is a temporary, so its median may partition it in place.
        mad = _median_rows(np.abs(excess), overwrite_input=True)
        sigma = 1.4826 * mad.astype(np.float64)
        # Threshold rounded to float32 exactly as the scalar comparison does.
        threshold = (CLIP_SIGMA * sigma).astype(np.float32)
        candidates = excess > threshold[:, None, None]
        active = candidates.any(axis=(1, 2)) & (sigma > 0)
        # The 3x3 median filter dwarfs every other statistic here, and an
        # outlier must first be a candidate — so filter only the visits
        # that have at least one candidate pixel.  Clean traffic (no pixel
        # past CLIP_SIGMA) skips it entirely; the result is bit-identical
        # because outliers is a subset of candidates & active.
        active_idx = np.flatnonzero(active)
        if active_idx.size:
            local = ndimage.median_filter(
                diff[active_idx], size=(1, 3, 3), mode="nearest"
            )
            sub_med = med[active_idx, None, None]
            sub_excess = excess[active_idx]
            unsupported = (local - sub_med) < np.float32(
                CLIP_SUPPORT_RATIO
            ) * sub_excess
            outliers = candidates[active_idx] & unsupported
            counts = outliers.sum(axis=(1, 2))
            if counts.any():
                sub_obs = observation[active_idx]
                sub_obs[outliers] = reference[active_idx][outliers] + local[outliers]
                repaired[kept_idx[active_idx], 1] = sub_obs
            n_clipped[kept_idx[active_idx]] = counts

    n_bands = len(GRIZY)
    diags: list[InputDiagnostics] = []
    for i in range(m):
        diag = InputDiagnostics(
            visit=int(visits[i]),
            band=GRIZY[int(visits[i]) % n_bands].name,
            n_pixels=n_pixels,
            n_nonfinite=int(n_nonfinite[i]),
            n_saturated=int(n_saturated[i]),
            bad_fraction=float(bad_fraction[i]),
        )
        if missing[i]:
            diag.rejected = True
            diag.reason = (
                "reference" if channel_dead[i, 0] else "observation"
            ) + " channel entirely unusable (missing visit)"
        elif over_budget[i]:
            diag.rejected = True
            diag.reason = (
                f"bad-pixel fraction {diag.bad_fraction:.3f} exceeds repair "
                f"budget {MAX_REPAIR_FRACTION:.3f}"
            )
        else:
            if inpainted[i]:
                diag.repaired = True
                diag.reason = "inpainted non-finite/saturated pixels"
            if n_clipped[i]:
                diag.n_clipped = int(n_clipped[i])
                diag.repaired = True
                diag.reason = (diag.reason + "; " if diag.reason else "") + (
                    f"sigma-clipped {diag.n_clipped} difference outlier(s)"
                )
        diags.append(diag)
    return repaired, diags, kept
