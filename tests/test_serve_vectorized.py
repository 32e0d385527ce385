"""Vectorized serve hot path: batch repair parity.

The serving engine validates/repairs visits through
:func:`diagnose_and_repair_batch`, a whole-batch vectorisation of the
per-visit :func:`diagnose_and_repair`.  These tests pin the contract
that the two are *bit-identical* — same diagnostics, same repaired
pixels, same keep/reject verdicts — on traffic damaged by every
:mod:`repro.runtime.faults` injector.
"""

import numpy as np
import pytest

from repro.datasets import BuildConfig, DatasetBuilder
from repro.runtime import DropBand, NaNPixels, SaturateRegion, TruncateCutout
from repro.serve import (
    RepairConfig,
    diagnose_and_repair,
    diagnose_and_repair_batch,
)
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


def _assert_batch_matches_loop(pairs: np.ndarray, config: RepairConfig) -> None:
    """Bitwise parity of the batch path against the per-visit loop."""
    n, v = pairs.shape[:2]
    flat = np.ascontiguousarray(pairs.reshape(n * v, *pairs.shape[2:]))
    visits = np.tile(np.arange(v), n)
    repaired_b, diags_b, kept_b = diagnose_and_repair_batch(flat, visits, config)
    for i in range(n * v):
        repaired_l, diag_l = diagnose_and_repair(flat[i], int(visits[i]), config)
        assert diags_b[i].to_dict() == diag_l.to_dict(), f"diag mismatch at {i}"
        assert bool(kept_b[i]) == (not diag_l.rejected)
        if not diag_l.rejected:
            np.testing.assert_array_equal(
                repaired_b[i], repaired_l, err_msg=f"pixels differ at visit {i}"
            )


class TestBatchRepairParity:
    def test_clean_traffic(self, dataset):
        _assert_batch_matches_loop(dataset.pairs[:4], RepairConfig())

    def test_dropped_bands(self, dataset):
        corrupted = DropBand([1, 3])(dataset.pairs[:4])
        _assert_batch_matches_loop(corrupted, RepairConfig())

    def test_nan_pixels_below_and_above_budget(self, dataset):
        for fraction in (0.03, 0.45):
            corrupted = NaNPixels(fraction, seed=5)(dataset.pairs[:3])
            _assert_batch_matches_loop(corrupted, RepairConfig())

    def test_saturated_regions(self, dataset):
        corrupted = SaturateRegion(6, seed=7)(dataset.pairs[:3])
        _assert_batch_matches_loop(corrupted, RepairConfig())

    def test_truncated_cutouts(self, dataset):
        corrupted = TruncateCutout(0.3)(dataset.pairs[:3])
        _assert_batch_matches_loop(corrupted, RepairConfig())

    def test_cosmic_ray_spikes_clipped(self, dataset):
        corrupted = dataset.pairs[:3].copy()
        spots = RNG.integers(5, 35, size=(corrupted.shape[1], 2))
        for v, (r, c) in enumerate(spots):
            corrupted[:, v, 1, r, c] += 5000.0
        _assert_batch_matches_loop(corrupted, RepairConfig())

    def test_mixed_damage_and_custom_config(self, dataset):
        corrupted = NaNPixels(0.05, seed=2)(SaturateRegion(4, seed=3)(dataset.pairs[:3]))
        config = RepairConfig(
            saturation_level=1000.0, max_repair_fraction=0.15, clip_sigma=6.0
        )
        _assert_batch_matches_loop(corrupted, config)

    @pytest.mark.parametrize(
        "value",
        [np.inf, -np.inf, 30000.0, np.nextafter(np.float32(30000.0), np.float32(0.0))],
        ids=["plus-inf", "minus-inf", "at-saturation", "below-saturation"],
    )
    def test_single_pixel_at_the_clean_gate(self, dataset, value):
        # One pixel on either side of the clean-visit gate: only ``min``
        # sees -inf, and a pixel exactly at the level is saturated.
        config = RepairConfig(saturation_level=30000.0)
        corrupted = dataset.pairs[:2].copy()
        corrupted[1, 2, 0, 17, 23] = value
        _assert_batch_matches_loop(corrupted, config)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(M, 2, S, S\)"):
            diagnose_and_repair_batch(np.zeros((3, 9, 9)), np.zeros(3))
        with pytest.raises(ValueError, match="visits"):
            diagnose_and_repair_batch(np.zeros((3, 2, 9, 9)), np.zeros(2))
