"""Integration tests: the full three-stage pipeline on a tiny dataset,
trainer mechanics, and utilities."""

import numpy as np
import pytest

from repro.core import (
    History,
    SupernovaPipeline,
    TrainConfig,
    epoch_visit_indices,
    fit_classifier,
    fit_regressor,
)
from repro.core.classifier import LightCurveClassifier
from repro.datasets import BuildConfig, DatasetBuilder, train_val_test_split
from repro.eval import auc_score
from repro.survey import ImagingConfig
from repro.utils import format_table, spawn_rngs


@pytest.fixture(scope="module")
def splits():
    config = BuildConfig(
        n_ia=20,
        n_non_ia=20,
        seed=21,
        catalog_size=100,
        imaging=ImagingConfig(stamp_size=41),
    )
    dataset = DatasetBuilder(config).build()
    return train_val_test_split(dataset, train_fraction=0.7, val_fraction=0.15, seed=0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    def test_optimizer_construction(self):
        model = LightCurveClassifier(input_dim=10, units=8)
        adam = TrainConfig(optimizer="adam").make_optimizer(model)
        sgd = TrainConfig(optimizer="sgd").make_optimizer(model)
        assert type(adam).__name__ == "Adam"
        assert type(sgd).__name__ == "SGD"


class TestTrainerMechanics:
    def test_history_records_epochs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 10)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.float32)
        clf = LightCurveClassifier(input_dim=10, units=8, rng=rng)
        history = fit_classifier(clf, x, y, TrainConfig(epochs=5, batch_size=16, seed=1))
        assert history.n_epochs == 5
        assert all(np.isfinite(v) for v in history.train_loss)

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 10)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.float32)
        x_val = rng.normal(size=(32, 10)).astype(np.float32)
        # Validation labels follow the *opposite* rule: as the model learns
        # the training rule, validation loss rises and early stopping fires.
        y_val = (x_val[:, 0] <= 0).astype(np.float32)
        clf = LightCurveClassifier(input_dim=10, units=8, rng=rng)
        history = fit_classifier(
            clf, x, y,
            TrainConfig(epochs=50, batch_size=16, seed=2, early_stopping_patience=3),
            x_val, y_val,
        )
        assert history.n_epochs < 50
        assert history.best_epoch >= 0
        assert history.val_loss[history.best_epoch] == pytest.approx(history.best_val_loss)

    def test_input_length_mismatch(self):
        clf = LightCurveClassifier(input_dim=10, units=8)
        with pytest.raises(ValueError):
            fit_classifier(
                clf, np.zeros((4, 10), dtype=np.float32), np.zeros(5, dtype=np.float32),
                TrainConfig(epochs=1),
            )

    def test_regressor_loss_decreases(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 10)).astype(np.float32)
        y = x[:, 0] * 2.0 + 1.0
        from repro import nn

        model = nn.Sequential(nn.Linear(10, 16, rng=rng), nn.ReLU(), nn.Linear(16, 1, rng=rng))
        class Reg(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = model
            def forward(self, t):
                return self.inner(t).reshape(-1)
        history = fit_regressor(
            Reg(), x, y, TrainConfig(epochs=30, batch_size=32, seed=4, learning_rate=1e-2)
        )
        assert history.train_loss[-1] < history.train_loss[0] / 5


class TestPipelineIntegration:
    def test_three_stages_run(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=0)
        h1 = pipe.fit_flux_cnn(
            splits.train, splits.val, TrainConfig(epochs=1, batch_size=32, seed=1)
        )
        assert h1.n_epochs == 1
        h2 = pipe.fit_classifier(
            splits.train, splits.val, TrainConfig(epochs=3, batch_size=16, seed=2),
            use_ground_truth=True,
        )
        assert len(h2.val_metric) == h2.n_epochs
        h3 = pipe.fine_tune(
            splits.train, splits.val, TrainConfig(epochs=1, batch_size=8, seed=3)
        )
        assert h3.n_epochs == 1
        probs = pipe.predict_proba(splits.test)
        assert probs.shape == (len(splits.test),)
        assert np.all((probs >= 0) & (probs <= 1))
        auc = pipe.evaluate_auc(splits.test)
        assert 0.0 <= auc <= 1.0

    def test_two_stage_path_without_joint(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=2, seed=1)
        pipe.fit_classifier(
            splits.train, splits.val, TrainConfig(epochs=2, batch_size=16, seed=1),
            use_ground_truth=True,
        )
        probs = pipe.predict_proba(splits.test, use_joint=False)
        assert probs.shape == (len(splits.test),)

    def test_scratch_strategy_builds_fresh_joint(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=2)
        pipe.fine_tune(
            splits.train, splits.val,
            TrainConfig(epochs=1, batch_size=8, seed=4), from_scratch=True,
        )
        assert pipe.joint is not None

    def test_estimates_shapes(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=16, seed=3)
        mags = pipe.estimate_magnitudes(splits.test)
        flux = pipe.estimated_fluxes(splits.test)
        assert mags.shape == (len(splits.test), splits.test.n_visits)
        assert np.all(flux > 0)

    def test_epoch_visit_indices(self, splits):
        idx = epoch_visit_indices(splits.test, 2)
        np.testing.assert_array_equal(idx, np.arange(10))
        with pytest.raises(ValueError):
            epoch_visit_indices(splits.test, [])

    def test_epoch_visit_indices_validates_range(self, splits):
        with pytest.raises(IndexError, match=r"out of range \[0, 4\)"):
            epoch_visit_indices(splits.test, [0, 7])
        with pytest.raises(IndexError, match="out of range"):
            epoch_visit_indices(splits.test, [-1])
        with pytest.raises(IndexError, match="out of range"):
            epoch_visit_indices(splits.test, 9)
        with pytest.raises(TypeError, match="integers"):
            epoch_visit_indices(splits.test, [1.5])

    def test_joint_inputs_windowed_shapes(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=7)
        pairs, dates, labels = pipe._joint_inputs(splits.test, windowed=True)
        n_windows = splits.test.n_epochs  # 4 windows for k=1
        assert pairs.shape[0] == len(splits.test) * n_windows
        assert dates.shape == (pairs.shape[0], 5)
        assert labels.shape == (pairs.shape[0],)
        # Labels repeat per window block.
        np.testing.assert_array_equal(
            labels[: len(splits.test)], splits.test.labels.astype(np.float32)
        )

    def test_joint_inputs_multi_epoch_windows(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=2, seed=8)
        pairs, dates, labels = pipe._joint_inputs(splits.test, windowed=True)
        # 4 epochs, k=2 -> 3 windows.
        assert pairs.shape[0] == len(splits.test) * 3
        assert pairs.shape[1] == 10

    def test_classifier_features_windowed(self, splits):
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=9)
        x, y = pipe._classifier_features(splits.test, use_ground_truth=True, windowed=True)
        assert x.shape == (len(splits.test) * 4, 10)
        assert y.shape == (len(splits.test) * 4,)

    def test_save_load_roundtrip(self, splits, tmp_path):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=10)
        pipe.fine_tune(
            splits.train, splits.val, TrainConfig(epochs=1, batch_size=8, seed=11)
        )
        pipe.save(str(tmp_path))
        loaded = SupernovaPipeline.load(str(tmp_path), input_size=36, units=16)
        np.testing.assert_array_equal(
            pipe.predict_proba(splits.test), loaded.predict_proba(splits.test)
        )
        assert loaded.joint is not None

    def test_save_writes_manifest(self, splits, tmp_path):
        import json

        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=2, seed=12)
        pipe.save(str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {
            "format_version": 1,
            "input_size": 36,
            "units": 16,
            "epochs_used": 2,
            "has_joint": False,
        }

    def test_load_restores_architecture_from_manifest(self, splits, tmp_path):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=13)
        pipe.save(str(tmp_path))
        loaded = SupernovaPipeline.load(str(tmp_path))  # no kwargs needed
        assert loaded.input_size == 36
        assert loaded.units == 16
        assert loaded.epochs_used == 1

    def test_load_rejects_conflicting_kwargs(self, splits, tmp_path):
        from repro.runtime import CorruptArtifactError

        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=14)
        pipe.save(str(tmp_path))
        with pytest.raises(CorruptArtifactError, match="units=99"):
            SupernovaPipeline.load(str(tmp_path), units=99)

    def test_load_manifest_less_dir_uses_kwargs(self, splits, tmp_path):
        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=15)
        pipe.save(str(tmp_path))
        (tmp_path / "manifest.json").unlink()  # legacy directory
        loaded = SupernovaPipeline.load(str(tmp_path), input_size=36, units=16)
        assert loaded.units == 16

    def test_load_rejects_bad_manifest(self, splits, tmp_path):
        from repro.runtime import CorruptArtifactError

        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=16)
        pipe.save(str(tmp_path))
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(CorruptArtifactError, match="unreadable manifest"):
            SupernovaPipeline.load(str(tmp_path))
        (tmp_path / "manifest.json").write_text('{"format_version": 99}')
        with pytest.raises(CorruptArtifactError, match="format_version"):
            SupernovaPipeline.load(str(tmp_path))
        (tmp_path / "manifest.json").write_text(
            '{"format_version": 1, "input_size": -3, "units": 16, "epochs_used": 1}'
        )
        with pytest.raises(CorruptArtifactError, match="input_size"):
            SupernovaPipeline.load(str(tmp_path))

    def test_load_rejects_weights_manifest_mismatch(self, splits, tmp_path):
        import json

        from repro.runtime import CorruptArtifactError

        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=17)
        pipe.save(str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["units"] = 32  # lie about the stored architecture
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptArtifactError, match="declared architecture"):
            SupernovaPipeline.load(str(tmp_path))

    def test_load_rejects_missing_declared_joint(self, splits, tmp_path):
        from repro.runtime import CorruptArtifactError

        pipe = SupernovaPipeline(input_size=36, units=16, epochs_used=1, seed=18)
        pipe.fine_tune(
            splits.train, splits.val, TrainConfig(epochs=1, batch_size=8, seed=19)
        )
        pipe.save(str(tmp_path))
        (tmp_path / "joint.npz").unlink()
        with pytest.raises(CorruptArtifactError, match="joint.npz is missing"):
            SupernovaPipeline.load(str(tmp_path))

    def test_nan_inputs_raise(self):
        x = np.full((32, 10), np.nan, dtype=np.float32)
        y = np.zeros(32, dtype=np.float32)
        clf = LightCurveClassifier(input_dim=10, units=8)
        with pytest.raises(RuntimeError, match="non-finite"):
            fit_classifier(clf, x, y, TrainConfig(epochs=1, batch_size=16))


class TestUtils:
    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        a1, = spawn_rngs(5, 1)
        a2, = spawn_rngs(5, 1)
        assert a1.random() == a2.random()

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

    def test_format_table(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
