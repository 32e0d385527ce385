"""High-level API: the full three-stage method of the paper.

:class:`SupernovaPipeline` wires the pieces together exactly as Section 4
describes:

1. ``fit_flux_cnn``     — pre-train the band-wise CNN on (pair, magnitude)
   visits;
2. ``fit_classifier``   — pre-train the light-curve classifier on
   CNN-estimated (or ground-truth) features;
3. ``fine_tune``        — join the two networks and fine-tune end-to-end.

Every stage returns its training :class:`~repro.core.training.History`
and the pipeline keeps the fitted components accessible for evaluation.
"""

from __future__ import annotations

import numpy as np

from ..datasets import N_BANDS, SupernovaDataset
from ..eval import auc_score
from ..runtime.checkpoint import atomic_write_json
from .augment import make_pair_augmenter
from .classifier import LightCurveClassifier
from .features import DATE_SCALE_DAYS, features_from_arrays, windowed_epoch_features
from .flux_cnn import BandwiseCNN
from .joint import JointModel
from .training import History, TrainConfig, fit, fit_classifier, fit_regressor

__all__ = ["SupernovaPipeline", "scaled_dates", "epoch_visit_indices", "MANIFEST_NAME"]

#: Architecture manifest written next to the weight archives by ``save``.
MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


def epoch_visit_indices(dataset: SupernovaDataset, epochs: int | list[int]) -> np.ndarray:
    """Visit indices covering the requested epochs (epoch-major layout).

    ``epochs`` is either an epoch count (uses the first ``epochs``) or an
    explicit list of epoch indices; both are validated up front against
    the dataset's epoch range so a bad request fails with a descriptive
    message instead of an opaque indexing error downstream.
    """
    epoch_list = list(range(epochs)) if isinstance(epochs, int) else list(epochs)
    if not epoch_list:
        raise ValueError("need at least one epoch")
    total = dataset.n_epochs
    for e in epoch_list:
        if not isinstance(e, (int, np.integer)):
            raise TypeError(f"epoch indices must be integers, got {e!r}")
    bad = [int(e) for e in epoch_list if not 0 <= e < total]
    if bad:
        raise IndexError(
            f"epoch indices {bad} out of range [0, {total}) for a dataset "
            f"with {total} epochs"
        )
    return np.concatenate([dataset.epoch_slice(int(e)) for e in epoch_list])


def scaled_dates(mjd: np.ndarray) -> np.ndarray:
    """Centre dates per sample and scale by the 50-day light-curve scale."""
    mjd = np.asarray(mjd, dtype=float)
    return ((mjd - mjd.mean(axis=1, keepdims=True)) / DATE_SCALE_DAYS).astype(np.float32)


class SupernovaPipeline:
    """The paper's method end to end.

    Parameters
    ----------
    input_size:
        CNN crop size (Table 1; paper uses 60).
    units:
        Classifier hidden width (Fig. 9; paper uses 100).
    epochs_used:
        How many observation epochs feed the classifier (1 = the paper's
        single-epoch headline setting).
    seed:
        Seed for weight initialisation.
    """

    def __init__(
        self,
        input_size: int = 60,
        units: int = 100,
        epochs_used: int = 1,
        seed: int = 0,
    ) -> None:
        self.input_size = input_size
        self.units = units
        self.epochs_used = epochs_used
        rng = np.random.default_rng(seed)
        self.cnn = BandwiseCNN(input_size=input_size, rng=rng)
        n_visits = epochs_used * N_BANDS
        self.classifier = LightCurveClassifier(
            input_dim=2 * n_visits, units=units, rng=rng
        )
        self.joint: JointModel | None = None

    # ------------------------------------------------------------------
    # Stage 1: flux CNN
    # ------------------------------------------------------------------
    def fit_flux_cnn(
        self,
        train: SupernovaDataset,
        val: SupernovaDataset,
        config: TrainConfig | None = None,
        min_flux: float = 1.0,
        augment: bool = True,
    ) -> History:
        """Pre-train the band-wise CNN on all visible visits.

        ``augment`` enables dihedral + random-crop augmentation, which
        substitutes for the paper's 100x larger training corpus.
        """
        config = config or TrainConfig(epochs=10, batch_size=64)
        x_train, y_train, m_train = train.flux_pairs(min_flux)
        x_val, y_val, m_val = val.flux_pairs(min_flux)
        augment_fn = make_pair_augmenter(self.input_size) if augment else None
        return fit_regressor(
            self.cnn,
            x_train[m_train],
            y_train[m_train],
            config,
            x_val[m_val],
            y_val[m_val],
            augment_fn=augment_fn,
        )

    def estimate_magnitudes(self, dataset: SupernovaDataset) -> np.ndarray:
        """CNN magnitude estimates for every visit: (N, V)."""
        flat = dataset.pairs.reshape(-1, 2, dataset.stamp_size, dataset.stamp_size)
        mags = self.cnn.predict(flat)
        return mags.reshape(len(dataset), dataset.n_visits)

    def estimated_fluxes(self, dataset: SupernovaDataset) -> np.ndarray:
        """CNN flux estimates (ZP-27 counts) for every visit."""
        return 10.0 ** (-0.4 * (self.estimate_magnitudes(dataset) - 27.0))

    # ------------------------------------------------------------------
    # Stage 2: classifier
    # ------------------------------------------------------------------
    def _classifier_features(
        self, dataset: SupernovaDataset, use_ground_truth: bool, windowed: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels); windowed mode stacks every k-epoch window.

        The paper "split each sample into 4 subsets" to simulate
        single-epoch observations, so a 4-epoch sample yields
        ``n_epochs - epochs_used + 1`` independent sub-samples.
        """
        flux = (
            dataset.true_flux if use_ground_truth else self.estimated_fluxes(dataset)
        )
        if windowed:
            return windowed_epoch_features(
                flux, dataset.visit_mjd, dataset.labels, self.epochs_used, dataset.n_epochs
            )
        features = features_from_arrays(
            flux, dataset.visit_mjd, self.epochs_used, dataset.n_epochs
        )
        return features, dataset.labels.astype(np.float32)

    def fit_classifier(
        self,
        train: SupernovaDataset,
        val: SupernovaDataset,
        config: TrainConfig | None = None,
        use_ground_truth: bool = False,
        windowed: bool = True,
    ) -> History:
        """Pre-train the classifier on light-curve features.

        ``use_ground_truth=True`` reproduces the Figs. 9-10 experiments
        (true fluxes); ``False`` uses the stage-1 CNN's estimates, which
        is the correct pre-training for the joint model.
        """
        config = config or TrainConfig(epochs=50, batch_size=64)
        x_train, y_train = self._classifier_features(train, use_ground_truth, windowed)
        x_val, y_val = self._classifier_features(val, use_ground_truth, windowed)
        return fit_classifier(
            self.classifier,
            x_train,
            y_train,
            config,
            x_val,
            y_val,
            metric=auc_score,
        )

    # ------------------------------------------------------------------
    # Stage 3: joint fine-tuning
    # ------------------------------------------------------------------
    def _joint_inputs(
        self, dataset: SupernovaDataset, windowed: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, dates, labels) for the joint model.

        With ``windowed=True``, every contiguous ``epochs_used`` window of
        each sample becomes an independent sub-sample (the paper's
        single-epoch subset protocol), multiplying the data available to
        the expensive joint stage.
        """
        if not windowed:
            idx = epoch_visit_indices(dataset, self.epochs_used)
            return (
                dataset.pairs[:, idx],
                scaled_dates(dataset.visit_mjd[:, idx]),
                dataset.labels.astype(np.float32),
            )
        pairs_list, dates_list, labels_list = [], [], []
        n_windows = dataset.n_epochs - self.epochs_used + 1
        for start in range(n_windows):
            idx = epoch_visit_indices(
                dataset, list(range(start, start + self.epochs_used))
            )
            pairs_list.append(dataset.pairs[:, idx])
            dates_list.append(scaled_dates(dataset.visit_mjd[:, idx]))
            labels_list.append(dataset.labels.astype(np.float32))
        return (
            np.concatenate(pairs_list),
            np.concatenate(dates_list),
            np.concatenate(labels_list),
        )

    def fine_tune(
        self,
        train: SupernovaDataset,
        val: SupernovaDataset,
        config: TrainConfig | None = None,
        from_scratch: bool = False,
        seed: int = 1,
        windowed: bool = True,
    ) -> History:
        """Train the joint model (fine-tuned or from scratch — Fig. 12)."""
        config = config or TrainConfig(epochs=5, batch_size=32)
        if from_scratch:
            self.joint = JointModel.fresh(
                n_visits=self.epochs_used * N_BANDS,
                input_size=self.input_size,
                units=self.units,
                rng=np.random.default_rng(seed),
            )
        else:
            self.joint = JointModel.from_pretrained(self.cnn, self.classifier)

        pairs_train, dates_train, y_train = self._joint_inputs(train, windowed)
        pairs_val, dates_val, y_val = self._joint_inputs(val, windowed)

        from .. import nn
        from ..nn.tensor import Tensor

        bce = nn.BCEWithLogitsLoss()

        def loss_fn(model, batch_inputs, batch_target):
            logits = model(Tensor(batch_inputs[0]), Tensor(batch_inputs[1]))
            return bce(logits, batch_target)

        def scores(model, val_inputs):
            return model.predict_proba(val_inputs[0], val_inputs[1])

        return fit(
            self.joint,
            [pairs_train, dates_train],
            y_train,
            loss_fn,
            config,
            val_inputs=[pairs_val, dates_val],
            val_target=y_val,
            metric=auc_score,
            metric_scores=scores,
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_proba(
        self, dataset: SupernovaDataset, use_joint: bool = True
    ) -> np.ndarray:
        """P(SNIa) per sample (first ``epochs_used`` epochs).

        With ``use_joint`` (and a fine-tuned joint model) the end-to-end
        network is used; otherwise the two-stage CNN-features + classifier
        path.
        """
        if use_joint and self.joint is not None:
            pairs, dates, _ = self._joint_inputs(dataset, windowed=False)
            return self.joint.predict_proba(pairs, dates)
        features, _ = self._classifier_features(
            dataset, use_ground_truth=False, windowed=False
        )
        return self.classifier.predict_proba(features)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write all fitted components as ``.npz`` state dicts.

        Creates ``flux_cnn.npz``, ``classifier.npz``, if fine-tuned
        ``joint.npz``, and a ``manifest.json`` recording the architecture
        hyper-parameters so :meth:`load` can rebuild the pipeline without
        the caller re-supplying them.
        """
        import os

        from ..nn import save_module

        os.makedirs(directory, exist_ok=True)
        save_module(self.cnn, os.path.join(directory, "flux_cnn.npz"))
        save_module(self.classifier, os.path.join(directory, "classifier.npz"))
        if self.joint is not None:
            save_module(self.joint, os.path.join(directory, "joint.npz"))
        manifest = {
            "format_version": _MANIFEST_VERSION,
            "input_size": self.input_size,
            "units": self.units,
            "epochs_used": self.epochs_used,
            "has_joint": self.joint is not None,
        }
        atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)

    @staticmethod
    def read_manifest(directory: str) -> dict | None:
        """Parse and validate ``manifest.json``; ``None`` for legacy dirs.

        Raises :class:`~repro.runtime.errors.CorruptArtifactError` when a
        manifest exists but is unreadable, from an unknown format version,
        or missing/mistyping required fields.
        """
        import json
        import os

        from ..runtime import CorruptArtifactError

        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptArtifactError(path, f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CorruptArtifactError(path, "manifest must be a JSON object")
        version = manifest.get("format_version")
        if version != _MANIFEST_VERSION:
            raise CorruptArtifactError(
                path, f"unsupported manifest format_version {version!r} "
                f"(this build reads version {_MANIFEST_VERSION})"
            )
        for key in ("input_size", "units", "epochs_used"):
            value = manifest.get(key)
            if not isinstance(value, int) or value <= 0:
                raise CorruptArtifactError(
                    path, f"manifest field {key!r} must be a positive integer, "
                    f"got {value!r}"
                )
        return manifest

    @classmethod
    def load(
        cls,
        directory: str,
        input_size: int | None = None,
        units: int | None = None,
        epochs_used: int | None = None,
    ) -> "SupernovaPipeline":
        """Rebuild a pipeline saved by :meth:`save`.

        Architecture hyper-parameters come from the directory's
        ``manifest.json``; explicitly passed values are cross-checked
        against it and a conflict raises
        :class:`~repro.runtime.errors.CorruptArtifactError` (the directory
        does not hold what the caller expects).  Directories written
        before the manifest existed still load — pass the original
        hyper-parameters as before (defaults: 60 / 100 / 1).  Weight
        archives that do not fit the declared architecture are likewise
        reported as corrupt artifacts.
        """
        import os

        from ..nn import load_module
        from ..runtime import CorruptArtifactError

        manifest = cls.read_manifest(directory)
        if manifest is not None:
            requested = {
                "input_size": input_size, "units": units, "epochs_used": epochs_used,
            }
            for key, value in requested.items():
                if value is not None and value != manifest[key]:
                    raise CorruptArtifactError(
                        os.path.join(directory, MANIFEST_NAME),
                        f"requested {key}={value} but the saved run used "
                        f"{key}={manifest[key]}",
                    )
            input_size = manifest["input_size"]
            units = manifest["units"]
            epochs_used = manifest["epochs_used"]
        else:
            input_size = 60 if input_size is None else input_size
            units = 100 if units is None else units
            epochs_used = 1 if epochs_used is None else epochs_used

        pipe = cls(input_size=input_size, units=units, epochs_used=epochs_used)
        joint_path = os.path.join(directory, "joint.npz")
        if manifest is not None and manifest.get("has_joint") and not os.path.exists(joint_path):
            raise CorruptArtifactError(
                joint_path, "manifest declares a fine-tuned joint model but "
                "joint.npz is missing"
            )
        # Each archive is loaded under its own guard so any failure —
        # checksum mismatch (raised by verified_load with the path) or
        # architecture mismatch (wrapped here) — names the file that is
        # actually at fault, not just the directory.
        def _load_weights(module, path: str, what: str) -> None:
            try:
                load_module(module, path)
            except (KeyError, ValueError) as exc:
                raise CorruptArtifactError(
                    path,
                    f"{what} weights do not match the declared architecture: {exc}",
                ) from exc

        _load_weights(pipe.cnn, os.path.join(directory, "flux_cnn.npz"), "flux CNN")
        _load_weights(
            pipe.classifier, os.path.join(directory, "classifier.npz"), "classifier"
        )
        if os.path.exists(joint_path):
            pipe.joint = JointModel.from_pretrained(pipe.cnn, pipe.classifier)
            _load_weights(pipe.joint, joint_path, "joint model")
        return pipe

    def evaluate_auc(
        self, dataset: SupernovaDataset, use_joint: bool = True, windowed: bool = True
    ) -> float:
        """AUC against the dataset labels.

        With ``windowed=True`` (the paper's protocol) every epoch window
        of every sample is scored as an independent sub-sample.
        """
        if not windowed:
            return auc_score(dataset.labels, self.predict_proba(dataset, use_joint))
        if use_joint and self.joint is not None:
            pairs, dates, labels = self._joint_inputs(dataset, windowed=True)
            return auc_score(labels, self.joint.predict_proba(pairs, dates))
        features, labels = self._classifier_features(
            dataset, use_ground_truth=False, windowed=True
        )
        return auc_score(labels, self.classifier.predict_proba(features))
