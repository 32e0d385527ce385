"""Tests for the paper's models: band-wise CNN, classifier, joint model,
features and augmentation."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    BandwiseCNN,
    JointModel,
    LightCurveClassifier,
    PerBandCNNEnsemble,
    dihedral_transform,
    features_from_arrays,
    make_pair_augmenter,
    random_crop,
    scaled_dates,
    windowed_epoch_features,
)
from repro.core.features import DATE_SCALE_DAYS
from repro.datasets import N_BANDS
from repro.nn import Tensor
from repro.photometry import signed_log10

RNG = np.random.default_rng(99)


class TestBandwiseCNN:
    def test_output_shape(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        pairs = RNG.normal(size=(4, 2, 36, 36)).astype(np.float32)
        out = cnn(Tensor(pairs))
        assert out.shape == (4,)

    def test_crops_larger_stamps(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        pairs = RNG.normal(size=(3, 2, 65, 65)).astype(np.float32)
        assert cnn(Tensor(pairs)).shape == (3,)

    def test_rejects_small_stamps(self):
        cnn = BandwiseCNN(input_size=60, rng=RNG)
        with pytest.raises(ValueError):
            cnn(Tensor(np.zeros((1, 2, 44, 44), dtype=np.float32)))

    def test_rejects_wrong_channels(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        with pytest.raises(ValueError):
            cnn(Tensor(np.zeros((1, 3, 36, 36), dtype=np.float32)))

    def test_all_table1_sizes_forward(self):
        for size in (36, 44, 52, 60, 65):
            cnn = BandwiseCNN(input_size=size, rng=RNG)
            out = cnn(Tensor(np.zeros((2, 2, 65, 65), dtype=np.float32)))
            assert out.shape == (2,)

    def test_too_small_input_size_rejected(self):
        with pytest.raises(ValueError):
            BandwiseCNN(input_size=16, rng=RNG)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            BandwiseCNN(input_transform="sqrt", rng=RNG)
        with pytest.raises(ValueError):
            BandwiseCNN(pool="median", rng=RNG)
        with pytest.raises(ValueError):
            BandwiseCNN(channels=(10, 20), rng=RNG)

    def test_outputs_in_magnitude_range(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        cnn.eval()
        out = cnn.predict(RNG.normal(size=(8, 2, 36, 36)).astype(np.float32))
        # Freshly initialised network outputs near MAG_CENTER.
        assert np.all(np.abs(out - 24.5) < 10.0)

    def test_empty_input_keeps_float32_contract(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        out = cnn.predict(np.empty((0, 2, 36, 36), dtype=np.float32))
        assert out.shape == (0,)
        assert out.dtype == np.float32

    def test_paper_channel_progression(self):
        cnn = BandwiseCNN(input_size=60, rng=RNG)
        convs = [m for m in cnn.convs if isinstance(m, nn.Conv2d)]
        assert [c.out_channels for c in convs] == [10, 20, 30]
        assert all(c.kernel_size == 5 for c in convs)

    def test_gradients_reach_first_conv(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        pairs = Tensor(RNG.normal(size=(4, 2, 36, 36)).astype(np.float32))
        loss = (cnn(pairs) ** 2).mean()
        loss.backward()
        first_conv = next(m for m in cnn.convs if isinstance(m, nn.Conv2d))
        assert first_conv.weight.grad is not None
        assert np.any(first_conv.weight.grad != 0)

    def test_learns_brightness_ordering(self):
        # A shrunken CNN must learn that more flux = smaller magnitude.
        rng = np.random.default_rng(3)
        cnn = BandwiseCNN(input_size=36, channels=(4, 6, 8), fc_hidden=(16, 8), rng=rng)
        n = 120
        mags = rng.uniform(21.0, 25.0, n)
        flux = 10 ** (-0.4 * (mags - 27.0))
        pairs = np.zeros((n, 2, 36, 36), dtype=np.float32)
        rows, cols = np.mgrid[:36, :36]
        psf = np.exp(-((rows - 17.5) ** 2 + (cols - 17.5) ** 2) / (2 * 2.0**2))
        psf /= psf.sum()
        for i in range(n):
            pairs[i, 1] = flux[i] * psf + rng.normal(0, 0.3, (36, 36))
            pairs[i, 0] = rng.normal(0, 0.1, (36, 36))
        from repro.core import TrainConfig, fit_regressor

        fit_regressor(
            cnn, pairs, mags.astype(np.float32),
            TrainConfig(epochs=30, batch_size=32, seed=0, learning_rate=2e-3),
        )
        pred = cnn.predict(pairs)
        corr = np.corrcoef(pred, mags)[0, 1]
        assert corr > 0.8

    def test_state_roundtrip(self):
        cnn = BandwiseCNN(input_size=36, rng=RNG)
        clone = BandwiseCNN(input_size=36, rng=np.random.default_rng(1))
        clone.load_state_dict(cnn.state_dict())
        pairs = RNG.normal(size=(2, 2, 36, 36)).astype(np.float32)
        np.testing.assert_array_equal(cnn.predict(pairs), clone.predict(pairs))


class TestPerBandEnsemble:
    def test_routing(self):
        ensemble = PerBandCNNEnsemble(n_bands=3, input_size=36, rng=RNG)
        pairs = RNG.normal(size=(6, 2, 36, 36)).astype(np.float32)
        band_idx = np.array([0, 1, 2, 0, 1, 2])
        out = ensemble(Tensor(pairs), band_idx)
        assert out.shape == (6,)

    def test_band_alignment(self):
        # Output order must match input order, not band-grouped order.
        ensemble = PerBandCNNEnsemble(n_bands=2, input_size=36, rng=RNG)
        ensemble.eval()
        pairs = RNG.normal(size=(4, 2, 36, 36)).astype(np.float32)
        with nn.no_grad():
            mixed = ensemble(Tensor(pairs), np.array([1, 0, 1, 0])).numpy()
            only0 = ensemble.members[0](Tensor(pairs)).numpy()
            only1 = ensemble.members[1](Tensor(pairs)).numpy()
        np.testing.assert_array_equal(mixed, [only1[0], only0[1], only1[2], only0[3]])

    def test_misaligned_rejected(self):
        ensemble = PerBandCNNEnsemble(n_bands=2, input_size=36, rng=RNG)
        with pytest.raises(ValueError):
            ensemble(Tensor(np.zeros((3, 2, 36, 36), dtype=np.float32)), np.array([0, 1]))


class TestClassifier:
    def test_logit_shape(self):
        clf = LightCurveClassifier(input_dim=10, units=32, rng=RNG)
        out = clf(Tensor(RNG.normal(size=(7, 10)).astype(np.float32)))
        assert out.shape == (7,)

    def test_wrong_dim_rejected(self):
        clf = LightCurveClassifier(input_dim=10, rng=RNG)
        with pytest.raises(ValueError):
            clf(Tensor(np.zeros((3, 12), dtype=np.float32)))

    def test_validation(self):
        with pytest.raises(ValueError):
            LightCurveClassifier(input_dim=0)
        with pytest.raises(ValueError):
            LightCurveClassifier(n_highway=-1)

    def test_highway_count(self):
        clf = LightCurveClassifier(input_dim=10, units=16, n_highway=2, rng=RNG)
        highways = [m for m in clf.network if isinstance(m, nn.Highway)]
        assert len(highways) == 2

    def test_plain_fc_variant(self):
        clf = LightCurveClassifier(input_dim=10, units=16, use_highway=False, rng=RNG)
        highways = [m for m in clf.network if isinstance(m, nn.Highway)]
        assert not highways

    def test_proba_range(self):
        clf = LightCurveClassifier(input_dim=10, units=16, rng=RNG)
        probs = clf.predict_proba(RNG.normal(size=(20, 10)).astype(np.float32))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_learns_linear_rule(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 10)).astype(np.float32)
        y = (x[:, 0] + x[:, 3] > 0).astype(np.float32)
        clf = LightCurveClassifier(input_dim=10, units=32, rng=rng)
        from repro.core import TrainConfig, fit_classifier

        fit_classifier(clf, x, y, TrainConfig(epochs=40, batch_size=64, seed=1))
        from repro.eval import auc_score

        assert auc_score(y, clf.predict_proba(x)) > 0.95


class TestFeatures:
    def test_shape_single_epoch(self):
        flux = RNG.uniform(0, 50, size=(8, 20))
        mjd = np.tile(np.arange(20) * 3.0, (8, 1))
        feats = features_from_arrays(flux, mjd, epochs=1)
        assert feats.shape == (8, 10)

    def test_shape_multi_epoch(self):
        flux = RNG.uniform(0, 50, size=(8, 20))
        mjd = np.tile(np.arange(20) * 3.0, (8, 1))
        assert features_from_arrays(flux, mjd, epochs=3).shape == (8, 30)

    def test_explicit_epoch_list(self):
        flux = RNG.uniform(0, 50, size=(4, 20))
        mjd = np.tile(np.arange(20.0), (4, 1))
        feats = features_from_arrays(flux, mjd, epochs=[2])
        expected = features_from_arrays(np.roll(flux, -10, axis=1), np.roll(mjd, -10, axis=1), epochs=1)
        np.testing.assert_allclose(feats, expected, rtol=1e-5)

    def test_flux_half_is_signed_log(self):
        flux = np.array([[0.0, 9.0, 99.0, 0.0, 0.0] + [0.0] * 15])
        mjd = np.zeros((1, 20))
        feats = features_from_arrays(flux, mjd, epochs=1)
        np.testing.assert_allclose(feats[0, :5], [0.0, 1.0, 2.0, 0.0, 0.0], atol=1e-6)

    def test_dates_centred(self):
        flux = np.zeros((2, 20))
        mjd = np.tile(np.linspace(0, 95, 20), (2, 1))
        feats = features_from_arrays(flux, mjd, epochs=1)
        assert feats[:, 5:].mean() == pytest.approx(0.0, abs=1e-6)

    def test_bit_identical_to_the_plain_formula(self):
        """The one (masked) builder with every visit usable reproduces the
        plain formula — signed-log fluxes, dates centred on the mean of
        the selected visits — bit for bit."""

        def plain(flux, mjd, epoch_list):
            visits = np.concatenate(
                [np.arange(e * N_BANDS, (e + 1) * N_BANDS) for e in epoch_list]
            )
            f, d = flux[:, visits], mjd[:, visits]
            d = (d - d.mean(axis=1, keepdims=True)) / DATE_SCALE_DAYS
            blocks = []
            for k in range(len(epoch_list)):
                cols = slice(k * N_BANDS, (k + 1) * N_BANDS)
                blocks += [signed_log10(f[:, cols]), d[:, cols]]
            return np.concatenate(blocks, axis=1).astype(np.float32)

        rng = np.random.default_rng(7)
        for case in range(240):
            dtype = (np.float32, np.float64)[case % 2]
            total = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            flux = (rng.normal(0.0, 200.0, size=(n, total * N_BANDS))
                    * rng.uniform(0.0, 10.0)).astype(dtype)
            mjd = (57000.0 + rng.uniform(0.0, 300.0, size=flux.shape)).astype(dtype)
            if case % 4 < 2:
                epochs = int(rng.integers(1, total + 1))
                epoch_list = list(range(epochs))
            else:
                epoch_list = sorted(rng.choice(
                    total, size=int(rng.integers(1, total + 1)), replace=False
                ).tolist())
                epochs = epoch_list
            got = features_from_arrays(flux, mjd, epochs, total)
            want = plain(flux, mjd, epoch_list)
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_validation(self):
        with pytest.raises(ValueError):
            features_from_arrays(np.zeros((2, 20)), np.zeros((2, 19)), 1)
        with pytest.raises(IndexError):
            features_from_arrays(np.zeros((2, 20)), np.zeros((2, 20)), [7])
        with pytest.raises(ValueError):
            features_from_arrays(np.zeros((2, 20)), np.zeros((2, 20)), [])

    def test_windowed_counts(self):
        flux = RNG.uniform(0, 10, size=(6, 20))
        mjd = np.tile(np.arange(20.0), (6, 1))
        labels = np.arange(6) % 2
        feats, ys = windowed_epoch_features(flux, mjd, labels, k_epochs=2)
        assert feats.shape == (6 * 3, 20)
        assert ys.shape == (18,)
        np.testing.assert_array_equal(ys[:6], labels)

    def test_windowed_validation(self):
        with pytest.raises(ValueError):
            windowed_epoch_features(np.zeros((2, 20)), np.zeros((2, 20)), np.zeros(2), 5)

    def test_scaled_dates(self):
        mjd = np.array([[0.0, 50.0, 100.0]])
        out = scaled_dates(mjd)
        np.testing.assert_allclose(out, [[-1.0, 0.0, 1.0]])


class TestAugmentation:
    def test_dihedral_preserves_shape_and_content(self):
        img = RNG.normal(size=(3, 2, 8, 8))
        for k in range(4):
            for flip in (False, True):
                out = dihedral_transform(img, k, flip)
                assert out.shape == img.shape
                assert out.sum() == pytest.approx(img.sum(), rel=1e-6)

    def test_dihedral_identity(self):
        img = RNG.normal(size=(2, 5, 5))
        np.testing.assert_array_equal(dihedral_transform(img, 0, False), img)

    def test_random_crop_size(self):
        img = RNG.normal(size=(4, 2, 65, 65))
        out = random_crop(img, 60, np.random.default_rng(0))
        assert out.shape == (4, 2, 60, 60)

    def test_random_crop_too_large(self):
        with pytest.raises(ValueError):
            random_crop(np.zeros((1, 1, 10, 10)), 12, np.random.default_rng(0))

    def test_augmenter_output(self):
        augment = make_pair_augmenter(crop_size=30)
        batch = RNG.normal(size=(5, 2, 33, 33)).astype(np.float32)
        out = augment(batch, np.random.default_rng(1))
        assert out.shape == (5, 2, 30, 30)
        assert out.flags["C_CONTIGUOUS"]

    def test_augmenter_rejects_non_images(self):
        augment = make_pair_augmenter()
        with pytest.raises(ValueError):
            augment(np.zeros((4, 10)), np.random.default_rng(0))


class TestJointModel:
    @staticmethod
    def _make(n_visits=5):
        rng = np.random.default_rng(5)
        return JointModel.fresh(n_visits=n_visits, input_size=36, units=16, rng=rng)

    def test_forward_shape(self):
        model = self._make()
        pairs = Tensor(RNG.normal(size=(3, 5, 2, 36, 36)).astype(np.float32))
        dates = Tensor(np.zeros((3, 5), dtype=np.float32))
        assert model(pairs, dates).shape == (3,)

    def test_visit_mismatch_rejected(self):
        model = self._make(n_visits=5)
        pairs = Tensor(np.zeros((2, 10, 2, 36, 36), dtype=np.float32))
        dates = Tensor(np.zeros((2, 10), dtype=np.float32))
        with pytest.raises(ValueError):
            model(pairs, dates)

    def test_date_shape_checked(self):
        model = self._make()
        pairs = Tensor(np.zeros((2, 5, 2, 36, 36), dtype=np.float32))
        with pytest.raises(ValueError):
            model(pairs, Tensor(np.zeros((2, 4), dtype=np.float32)))

    def test_gradients_flow_to_cnn(self):
        model = self._make()
        pairs = Tensor(RNG.normal(size=(4, 5, 2, 36, 36)).astype(np.float32))
        dates = Tensor(np.zeros((4, 5), dtype=np.float32))
        loss = nn.BCEWithLogitsLoss()(model(pairs, dates), np.array([1.0, 0.0, 1.0, 0.0]))
        loss.backward()
        first_conv = next(m for m in model.cnn.convs if isinstance(m, nn.Conv2d))
        assert first_conv.weight.grad is not None

    def test_from_pretrained_copies(self):
        from repro.core import BandwiseCNN, LightCurveClassifier

        cnn = BandwiseCNN(input_size=36, rng=RNG)
        clf = LightCurveClassifier(input_dim=10, units=16, rng=RNG)
        joint = JointModel.from_pretrained(cnn, clf)
        # Same predictions...
        pairs = RNG.normal(size=(2, 2, 36, 36)).astype(np.float32)
        np.testing.assert_array_equal(joint.cnn.predict(pairs), cnn.predict(pairs))
        # ...but independent parameters.
        joint.cnn.fc[-1].bias.data += 1.0
        assert not np.allclose(joint.cnn.fc[-1].bias.data, cnn.fc[-1].bias.data)

    def test_flux_feature_matches_numpy_path(self):
        # The in-graph feature must equal signed_log10(mag_to_flux(mag)).
        from repro.photometry import mag_to_flux, signed_log10

        mags = np.array([22.0, 25.0, 27.5], dtype=np.float32)
        feats = JointModel._flux_feature(Tensor(mags)).numpy()
        expected = signed_log10(mag_to_flux(mags))
        np.testing.assert_allclose(feats, expected, rtol=1e-5)

    def test_predict_proba_range(self):
        model = self._make()
        pairs = RNG.normal(size=(4, 5, 2, 36, 36)).astype(np.float32)
        dates = np.zeros((4, 5), dtype=np.float32)
        probs = model.predict_proba(pairs, dates)
        assert probs.shape == (4,)
        assert np.all((probs >= 0) & (probs <= 1))
