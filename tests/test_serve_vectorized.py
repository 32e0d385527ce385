"""Vectorized serve hot path: batch repair parity.

The serving engine validates/repairs visits through
:func:`diagnose_and_repair_batch`, a whole-batch vectorisation of the
per-visit :func:`diagnose_and_repair`.  These tests pin the contract
that the two are *bit-identical* — same diagnostics, same repaired
pixels, same keep/reject verdicts — on traffic damaged by every
:mod:`repro.runtime.faults` injector, and that the batch path's
per-visit median equals ``np.median``.
"""

import numpy as np
import pytest

from repro.datasets import BuildConfig, DatasetBuilder
from repro.runtime import DropBand, NaNPixels, SaturateRegion, TruncateCutout
from repro.serve import (
    SATURATION_LEVEL,
    diagnose_and_repair,
    diagnose_and_repair_batch,
)
from repro.serve.validation import MAX_REPAIR_FRACTION, _median_rows
from repro.survey import ImagingConfig

pytestmark = pytest.mark.faults

RNG = np.random.default_rng(99)


@pytest.fixture(scope="module")
def dataset():
    config = BuildConfig(
        n_ia=6, n_non_ia=6, seed=23, catalog_size=80,
        imaging=ImagingConfig(stamp_size=41),
    )
    return DatasetBuilder(config).build()


def _assert_batch_matches_loop(pairs: np.ndarray) -> tuple[list, np.ndarray]:
    """Bitwise parity of the batch path against the per-visit loop;
    returns the batch path's diagnostics and keep mask."""
    n, v = pairs.shape[:2]
    flat = np.ascontiguousarray(pairs.reshape(n * v, *pairs.shape[2:]))
    visits = np.tile(np.arange(v), n)
    repaired_b, diags_b, kept_b = diagnose_and_repair_batch(flat, visits)
    for i in range(n * v):
        repaired_l, diag_l = diagnose_and_repair(flat[i], int(visits[i]))
        assert diags_b[i].to_dict() == diag_l.to_dict(), f"diag mismatch at {i}"
        assert bool(kept_b[i]) == (not diag_l.rejected)
        if not diag_l.rejected:
            np.testing.assert_array_equal(
                repaired_b[i], repaired_l, err_msg=f"pixels differ at visit {i}"
            )
    return diags_b, kept_b


class TestBatchRepairParity:
    def test_clean_traffic(self, dataset):
        _assert_batch_matches_loop(dataset.pairs[:4])

    def test_dropped_bands(self, dataset):
        corrupted = DropBand([1, 3])(dataset.pairs[:4])
        _assert_batch_matches_loop(corrupted)

    def test_nan_pixels_below_and_above_budget(self, dataset):
        for fraction in (0.03, 0.45):
            corrupted = NaNPixels(fraction, seed=5)(dataset.pairs[:3])
            _assert_batch_matches_loop(corrupted)

    def test_saturated_regions(self, dataset):
        corrupted = SaturateRegion(6, seed=7)(dataset.pairs[:3])
        _assert_batch_matches_loop(corrupted)

    def test_truncated_cutouts(self, dataset):
        corrupted = TruncateCutout(0.3)(dataset.pairs[:3])
        _assert_batch_matches_loop(corrupted)

    def test_cosmic_ray_spikes_clipped(self, dataset):
        corrupted = dataset.pairs[:3].copy()
        spots = RNG.integers(5, 35, size=(corrupted.shape[1], 2))
        for v, (r, c) in enumerate(spots):
            corrupted[:, v, 1, r, c] += 5000.0
        _assert_batch_matches_loop(corrupted)

    def test_mixed_damage_and_custom_config(self, dataset):
        # Every repair constant decides some visit: a block at exactly
        # SATURATION_LEVEL, NaN damage on either side of
        # MAX_REPAIR_FRACTION, and spikes past CLIP_SIGMA.
        saturated = SaturateRegion(4, level=SATURATION_LEVEL, seed=3)(dataset.pairs[:3])
        corrupted = np.concatenate([
            NaNPixels(0.05, seed=2)(saturated[:2]),
            NaNPixels(MAX_REPAIR_FRACTION + 0.05, seed=2)(saturated[2:]),
        ])
        corrupted[:, :, 1, 20, 20] += 5000.0
        diags, kept = _assert_batch_matches_loop(corrupted)
        n_light = 2 * corrupted.shape[1]
        assert kept[:n_light].all() and not kept[n_light:].any()
        assert all(d.n_saturated for d in diags[:n_light])
        assert any(d.n_clipped for d in diags[:n_light])

    @pytest.mark.parametrize(
        "value",
        [
            np.inf,
            -np.inf,
            SATURATION_LEVEL,
            np.nextafter(np.float32(SATURATION_LEVEL), np.float32(0.0)),
        ],
        ids=["plus-inf", "minus-inf", "at-saturation", "below-saturation"],
    )
    def test_single_pixel_at_the_clean_gate(self, dataset, value):
        # One pixel on either side of the clean-visit gate: only ``min``
        # sees -inf, and a pixel exactly at the level is saturated.
        corrupted = dataset.pairs[:2].copy()
        corrupted[1, 2, 0, 17, 23] = value
        _assert_batch_matches_loop(corrupted)

    def test_even_sided_stamps(self, dataset):
        # The survey only renders odd stamps, so crop to 40x40: an even
        # pixel count takes the batch median's two-order-statistic path.
        corrupted = NaNPixels(0.03, seed=4)(dataset.pairs[:3, :, :, :40, :40])
        corrupted[:, :, 1, 12, 27] += 5000.0
        _assert_batch_matches_loop(corrupted)
        _assert_batch_matches_loop(dataset.pairs[:3, :, :, 1:, 1:])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(M, 2, S, S\)"):
            diagnose_and_repair_batch(np.zeros((3, 9, 9)), np.zeros(3))
        with pytest.raises(ValueError, match="visits"):
            diagnose_and_repair_batch(np.zeros((3, 2, 9, 9)), np.zeros(2))


def _assert_rows_match_np_median(a: np.ndarray) -> None:
    before = a.copy()
    with np.errstate(invalid="ignore"):  # even rows average -inf and +inf
        expected = np.median(a, axis=tuple(range(1, a.ndim)))
        got = _median_rows(a)
    # By value: the two partitions may pick -0.0 or +0.0 from a tie.
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(a, before)  # input left untouched


class TestMedianRows:
    @pytest.mark.parametrize(
        "shape",
        [(6, 9, 9), (6, 8, 8), (1, 13), (1, 12), (4, 1), (3, 7, 5)],
        ids=["odd", "even", "single-row-odd", "single-row-even", "width-1", "odd-rect"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_np_median(self, shape, dtype):
        a = np.random.default_rng(3).normal(size=shape).astype(dtype)
        _assert_rows_match_np_median(a)

    @pytest.mark.parametrize("width", [25, 24])
    def test_ties(self, width):
        a = np.random.default_rng(4).integers(-2, 3, size=(40, width))
        _assert_rows_match_np_median(a.astype(np.float32))

    @pytest.mark.parametrize("width", [9, 10])
    def test_nan_rows(self, width):
        a = np.random.default_rng(5).normal(size=(5, width)).astype(np.float32)
        a[1, 2] = np.nan  # one NaN among the large half
        a[2, :] = np.nan  # nothing but NaN
        a[3, : width // 2 + 1] = np.nan  # NaN at the middle position
        a[4, :] = np.inf
        a[4, 0] = np.nan  # NaN among +inf
        _assert_rows_match_np_median(a)  # NaN compares equal to NaN here

    @pytest.mark.parametrize("width", [9, 10])
    def test_infinities(self, width):
        a = np.random.default_rng(6).normal(size=(4, width)).astype(np.float32)
        a[0, :3] = np.inf
        a[1, :3] = -np.inf
        a[2, :] = np.inf
        a[3, ::2] = -np.inf
        a[3, 1::2] = np.inf
        _assert_rows_match_np_median(a)

    @pytest.mark.parametrize("width", [9, 10])
    def test_signed_zeros(self, width):
        a = np.zeros((6, width), dtype=np.float32)
        a[1] = -0.0
        a[2, ::2] = -0.0
        a[3, 1::2] = -0.0
        a[4, : width // 2] = -1.0
        a[4, width // 2 + 1 :] = 1.0
        a[4, width // 2] = -0.0
        a[5, ::3] = -0.0
        a[5, 1::3] = 2.0
        _assert_rows_match_np_median(a)

    @pytest.mark.parametrize("shape", [(7, 11, 11), (7, 10, 10)], ids=["odd", "even"])
    def test_overwrite_input_partitions_in_place(self, shape):
        a = np.abs(np.random.default_rng(7).normal(size=shape)).astype(np.float32)
        a[2, 3, 4] = np.nan
        original = a.copy()
        expected = np.median(original, axis=(1, 2))
        got = _median_rows(a, overwrite_input=True)
        np.testing.assert_array_equal(got, expected)
        rows, before = a.reshape(shape[0], -1), original.reshape(shape[0], -1)
        # Each row is a permutation of itself, partitioned about its middle.
        np.testing.assert_array_equal(np.sort(rows, axis=1), np.sort(before, axis=1))
        k = rows.shape[1] // 2
        clean = ~np.isnan(before).any(axis=1)
        assert (rows[clean, :k] <= rows[clean, k : k + 1]).all()
        assert (rows[clean, k + 1 :] >= rows[clean, k : k + 1]).all()
