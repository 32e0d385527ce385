"""Degraded-input serving: validation/repair, band masking, injectors."""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SupernovaPipeline
from repro.core.features import features_from_arrays, masked_features_from_arrays
from repro.datasets import BuildConfig, DatasetBuilder, N_BANDS
from repro.obs import DriftBaseline, MetricsRegistry
from repro.runtime import (
    CorruptArtifactError,
    DropBand,
    NaNPixels,
    SaturateRegion,
    TruncateCutout,
)
from repro.serve import (
    SATURATION_LEVEL,
    DegradedInputError,
    FluxPrior,
    InferenceEngine,
    clip_difference_outliers,
    diagnose_and_repair,
    inpaint_bad_pixels,
)
from repro.survey import ImagingConfig

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def dataset():
    config = BuildConfig(
        n_ia=8, n_non_ia=8, seed=17, catalog_size=80,
        imaging=ImagingConfig(stamp_size=41),
    )
    return DatasetBuilder(config).build()


@pytest.fixture(scope="module")
def engine(dataset):
    pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
    return InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))


def _clean_pair(rng=None, size=21):
    rng = rng or np.random.default_rng(0)
    return rng.normal(0.0, 3.0, size=(2, size, size)).astype(np.float32)


class TestValidationRepair:
    def test_clean_pair_passes(self):
        _, diag = diagnose_and_repair(_clean_pair(), visit=0)
        assert diag.clean and not diag.rejected
        assert diag.band == "g"

    def test_few_nans_repaired(self):
        pair = _clean_pair()
        pair[1, 3:6, 3:6] = np.nan
        repaired, diag = diagnose_and_repair(pair, visit=1)
        assert diag.repaired and not diag.rejected
        assert diag.n_nonfinite == 9
        assert np.isfinite(repaired).all()

    def test_saturated_block_repaired(self):
        pair = _clean_pair()
        pair[1, :4, :4] = SATURATION_LEVEL
        pair[1, 0, 0] = 2 * SATURATION_LEVEL
        repaired, diag = diagnose_and_repair(pair, visit=2)
        assert diag.n_saturated == 16 and diag.repaired
        assert repaired.max() < 100.0

    def test_heavy_damage_rejected(self):
        pair = _clean_pair()
        pair[1, :15, :] = np.nan  # ~36% of both channels' pixels
        _, diag = diagnose_and_repair(pair, visit=0)
        assert diag.rejected and "budget" in diag.reason

    def test_missing_channel_rejected(self):
        pair = _clean_pair()
        pair[0] = np.nan
        _, diag = diagnose_and_repair(pair, visit=0)
        assert diag.rejected and "missing visit" in diag.reason

    def test_inpaint_uses_neighbourhood_median(self):
        image = np.full((9, 9), 7.0, dtype=np.float32)
        bad = np.zeros((9, 9), dtype=bool)
        bad[4, 4] = True
        image[4, 4] = np.nan
        out = inpaint_bad_pixels(image, bad)
        assert out[4, 4] == pytest.approx(7.0)

    def test_sigma_clip_hits_cosmic_ray_not_psf(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(0.0, 2.0, size=(25, 25)).astype(np.float32)
        obs = ref + rng.normal(0.0, 0.5, size=ref.shape).astype(np.float32)
        # PSF-like source: broad Gaussian blob, neighbours support the peak.
        yy, xx = np.mgrid[:25, :25]
        psf = 200.0 * np.exp(-((yy - 12.0) ** 2 + (xx - 12.0) ** 2) / (2 * 2.0**2))
        obs = obs + psf.astype(np.float32)
        obs[3, 3] += 300.0  # isolated cosmic-ray pixel
        repaired, n = clip_difference_outliers(ref, obs)
        assert n >= 1
        assert repaired[3, 3] < obs[3, 3] - 100.0
        assert repaired[12, 12] == pytest.approx(obs[12, 12])  # SN peak untouched


class TestInjectors:
    @pytest.mark.parametrize(
        "injector",
        [DropBand(2), NaNPixels(0.1, seed=3), SaturateRegion(4, seed=1), TruncateCutout(0.3)],
        ids=["drop", "nan", "saturate", "truncate"],
    )
    def test_picklable_and_pure(self, injector):
        clone = pickle.loads(pickle.dumps(injector))
        pairs = np.zeros((2, 10, 2, 9, 9), dtype=np.float32)
        out = injector(pairs)
        assert np.array_equal(out, clone(pairs), equal_nan=True)
        assert not np.isnan(pairs).any()  # input untouched

    def test_per_sample_determinism_independent_of_batch(self):
        injector = NaNPixels(0.05, seed=9)
        pairs = np.random.default_rng(0).normal(size=(4, 5, 2, 11, 11))
        full = injector(pairs)
        head = injector(pairs[:2])
        assert np.array_equal(full[:2], head, equal_nan=True)

    def test_drop_band_hits_expected_visits(self):
        pairs = np.ones((1, 2 * N_BANDS, 2, 5, 5), dtype=np.float32)
        out = DropBand([1, 3])(pairs)
        for epoch in range(2):
            for band in range(N_BANDS):
                visit = epoch * N_BANDS + band
                if band in (1, 3):
                    assert np.isnan(out[0, visit]).all()
                else:
                    assert np.isfinite(out[0, visit]).all()

    def test_truncate_blanks_trailing_rows(self):
        pairs = np.ones((1, 5, 2, 10, 10), dtype=np.float32)
        out = TruncateCutout(0.4)(pairs)
        assert np.isnan(out[0, 0, 0, 6:, :]).all()
        assert np.isfinite(out[0, 0, 0, :6, :]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            DropBand(7)
        with pytest.raises(ValueError):
            NaNPixels(1.5)
        with pytest.raises(ValueError):
            SaturateRegion(0)
        with pytest.raises(ValueError):
            TruncateCutout(-0.1)
        with pytest.raises(ValueError):
            DropBand(0)(np.zeros((3, 2, 5, 5)))


class TestFluxPrior:
    def test_from_dataset_finite(self, dataset):
        prior = FluxPrior.from_dataset(dataset)
        assert prior.flux_feature.shape == (N_BANDS,)
        assert np.isfinite(prior.flux_feature).all()

    def test_neutral_is_zero(self):
        assert not FluxPrior.neutral().flux_feature.any()

    def test_save_load_roundtrip(self, dataset, tmp_path):
        prior = FluxPrior.from_dataset(dataset)
        prior.save(tmp_path)
        loaded = FluxPrior.load(tmp_path)
        np.testing.assert_allclose(loaded.flux_feature, prior.flux_feature)

    def test_missing_file_is_none(self, tmp_path):
        assert FluxPrior.load(tmp_path) is None

    def test_corrupt_prior_raises(self, tmp_path):
        (tmp_path / "flux_prior.json").write_text("{not json")
        with pytest.raises(CorruptArtifactError):
            FluxPrior.load(tmp_path)

    def test_validation(self):
        with pytest.raises(ValueError):
            FluxPrior(np.zeros(3))
        with pytest.raises(ValueError):
            FluxPrior(np.full(N_BANDS, np.nan))


def _save_prior(directory):
    FluxPrior(np.ones(N_BANDS)).save(directory)


def _save_baseline(directory):
    DriftBaseline.from_samples(np.linspace(0.0, 1.0, 50)).save(directory)


def _write_metrics(directory):
    MetricsRegistry().write(directory / "metrics.json")


def _save_manifest(directory):
    SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0).save(str(directory))


@pytest.mark.parametrize(
    "save, name",
    [
        (_save_prior, "flux_prior.json"),
        (_save_baseline, "drift_baseline.json"),
        (_write_metrics, "metrics.json"),
        (_save_manifest, "manifest.json"),
    ],
    ids=["flux-prior", "drift-baseline", "metrics", "manifest"],
)
def test_failed_json_save_keeps_old_file(save, name, tmp_path, monkeypatch):
    """A save that dies mid-write leaves the previous document and no
    temp file behind: every JSON artifact goes through one atomic writer."""
    save(tmp_path)
    before = (tmp_path / name).read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())

    def fail(*args, **kwargs):
        raise OSError("disk full (injected)")

    monkeypatch.setattr(json, "dump", fail)
    with pytest.raises(OSError, match="injected"):
        save(tmp_path)
    assert (tmp_path / name).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files


class TestMaskedFeatures:
    def test_matches_unmasked_when_all_usable(self, dataset):
        flux = dataset.true_flux[:, :N_BANDS]
        mjd = dataset.visit_mjd[:, :N_BANDS]
        usable = np.ones_like(flux, dtype=bool)
        masked = masked_features_from_arrays(flux, mjd, usable, 1, 1)
        plain = features_from_arrays(flux, mjd, 1, 1)
        np.testing.assert_allclose(masked, plain, rtol=1e-6)

    def test_masked_slots_take_prior_and_zero_date(self):
        flux = np.array([[10.0, 20.0, np.nan, 40.0, 50.0]])
        mjd = np.array([[0.0, 1.0, np.nan, 3.0, 4.0]])
        usable = np.array([[True, True, False, True, True]])
        prior = np.arange(N_BANDS, dtype=float)
        feats = masked_features_from_arrays(
            flux, mjd, usable, 1, 1, prior_flux_feature=prior
        )
        assert np.isfinite(feats).all()
        assert feats[0, 2] == pytest.approx(prior[2])  # flux slot of band i
        assert feats[0, N_BANDS + 2] == 0.0  # date slot of band i
        # Date centring uses usable dates only: mean of (0, 1, 3, 4) = 2.
        assert feats[0, N_BANDS] == pytest.approx((0.0 - 2.0) / 50.0)

    def test_all_masked_row_is_pure_prior(self):
        flux = np.full((1, N_BANDS), np.nan)
        mjd = np.full((1, N_BANDS), np.nan)
        usable = np.zeros((1, N_BANDS), dtype=bool)
        prior = np.linspace(0.5, 2.5, N_BANDS)
        feats = masked_features_from_arrays(
            flux, mjd, usable, 1, 1, prior_flux_feature=prior
        )
        np.testing.assert_allclose(feats[0, :N_BANDS], prior, rtol=1e-6)
        assert not feats[0, N_BANDS:].any()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            masked_features_from_arrays(
                np.zeros((2, N_BANDS)), np.zeros((2, N_BANDS)), np.zeros((3, N_BANDS), bool)
            )


class TestInferenceEngine:
    def test_clean_samples_served_clean(self, engine, dataset):
        results = engine.classify(dataset)
        assert len(results) == len(dataset)
        for r in results:
            assert not r.degraded
            assert r.confidence == 1.0
            assert r.usable_bands == ["g", "r", "i", "z", "y"]
            assert 0.0 <= r.probability <= 1.0

    def test_four_of_five_bands_dropped_still_served(self, engine, dataset):
        corrupted = DropBand([0, 1, 2, 3])(dataset.pairs)
        results = engine.classify_arrays(corrupted, dataset.visit_mjd)
        for r in results:
            assert r.degraded
            assert r.usable_bands == ["y"]
            assert 0.0 < r.confidence < 1.0
            assert 0.0 <= r.probability <= 1.0
            assert sum(1 for d in r.diagnostics if d.rejected) == 4

    def test_all_bands_dropped_falls_back_to_prior(self, engine, dataset):
        corrupted = DropBand([0, 1, 2, 3, 4])(dataset.pairs)
        results = engine.classify_arrays(corrupted, dataset.visit_mjd)
        probs = {round(r.probability, 9) for r in results}
        assert len(probs) == 1  # identical prior-only score for everyone
        assert all(r.confidence == 0.0 and r.usable_bands == [] for r in results)

    def test_nan_pixels_repaired_not_rejected(self, engine, dataset):
        corrupted = NaNPixels(0.02, seed=4)(dataset.pairs)
        results = engine.classify_arrays(corrupted, dataset.visit_mjd)
        for r in results:
            assert r.degraded
            assert r.usable_bands == ["g", "r", "i", "z", "y"]
            assert all(d.repaired and not d.rejected for d in r.diagnostics)

    def test_nonfinite_date_masks_visit(self, engine, dataset):
        mjd = dataset.visit_mjd.copy()
        mjd[:, 0] = np.nan
        results = engine.classify_arrays(dataset.pairs, mjd)
        for r in results:
            assert r.degraded and "g" not in r.usable_bands
            assert any("date" in d.reason for d in r.diagnostics)

    def test_strict_mode_raises(self, engine, dataset):
        corrupted = DropBand(2)(dataset.pairs)
        with pytest.raises(DegradedInputError, match="band i"):
            engine.classify_arrays(corrupted, dataset.visit_mjd, strict=True)

    def test_strict_engine_default(self, dataset, engine):
        """Strict is off unless the call sets it: no engine-level default."""
        corrupted = TruncateCutout(0.6)(dataset.pairs)
        results = engine.classify_arrays(corrupted, dataset.visit_mjd)
        assert all(r.degraded for r in results)
        assert all(r.degraded for r in engine.stream(replace(
            dataset, pairs=corrupted), batch_size=4))
        with pytest.raises(DegradedInputError):
            engine.classify_arrays(corrupted, dataset.visit_mjd, strict=True)

    def test_stream_matches_classify(self, engine, dataset):
        streamed = list(engine.stream(dataset, batch_size=3))
        batched = engine.classify(dataset)
        assert [r.index for r in streamed] == [r.index for r in batched]
        assert [r.probability for r in streamed] == [r.probability for r in batched]

    def test_batch_shape_errors(self, engine, dataset):
        with pytest.raises(ValueError, match="stamp pairs"):
            engine.classify_arrays(np.zeros((2, 5, 9, 9)), np.zeros((2, 5)))
        with pytest.raises(ValueError, match="visit_mjd"):
            engine.classify_arrays(dataset.pairs, dataset.visit_mjd[:, :3])
        with pytest.raises(ValueError, match="smaller than"):
            engine.classify_arrays(
                np.zeros((1, 5, 2, 8, 8), dtype=np.float32), np.zeros((1, 5))
            )

    def test_result_json_roundtrip(self, engine, dataset):
        corrupted = SaturateRegion(6, seed=2)(dataset.pairs[:2])
        result = engine.classify_arrays(corrupted, dataset.visit_mjd[:2])[0]
        payload = json.loads(result.to_json())
        assert payload["degraded"] is True
        assert payload["n_repaired_visits"] >= 1
        assert set(payload) >= {"index", "probability", "confidence", "usable_bands"}

    def test_save_and_from_directory_roundtrip(self, engine, dataset, tmp_path):
        engine.save(str(tmp_path))
        loaded = InferenceEngine.from_directory(str(tmp_path))
        np.testing.assert_allclose(
            loaded.prior.flux_feature, engine.prior.flux_feature
        )
        assert [r.probability for r in loaded.classify(dataset)] == [
            r.probability for r in engine.classify(dataset)
        ]

    def test_classifier_rejects_nonfinite_features(self):
        from repro.core.classifier import LightCurveClassifier

        clf = LightCurveClassifier(input_dim=10, units=8)
        features = np.zeros((4, 10), dtype=np.float32)
        features[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            clf.predict_proba(features)
