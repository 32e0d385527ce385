"""Hardened inference: classify degraded samples instead of crashing.

:class:`InferenceEngine` wraps a fitted
:class:`~repro.core.pipeline.SupernovaPipeline` with the serving
contract a survey feed needs:

1. every incoming sample is validated per visit (shape, dtype, finite
   pixels, saturation) and lightly damaged visits are repaired
   (:mod:`repro.serve.validation`);
2. visits that are missing or beyond repair are *masked*: their slots in
   the 10-dimensional light-curve feature are imputed from the
   training-set per-band flux prior and excluded from date centring
   (:func:`repro.core.features.masked_features_from_arrays`);
3. every sample comes back as a :class:`PredictionResult` — probability,
   degradation flag, usable bands, confidence downgrade — and degraded
   inputs *never raise* unless ``strict`` mode asks them to.

Classification runs the two-stage path (band-wise CNN magnitudes into
the light-curve classifier): unlike the joint network, its feature seam
is exactly where missing bands can be masked and imputed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .. import obs
from ..core.features import masked_features_from_arrays
from ..core.pipeline import SupernovaPipeline
from ..datasets import N_BANDS, SupernovaDataset
from ..obs import trace as _trace
from ..obs.drift import DriftBaseline, DriftMonitor
from ..photometry import GRIZY, signed_log10
from ..runtime.checkpoint import atomic_write_json
from .validation import InputDiagnostics, diagnose_and_repair_batch

__all__ = ["FluxPrior", "PredictionResult", "DegradedInputError", "InferenceEngine"]

PRIOR_FILE = "flux_prior.json"


class DegradedInputError(ValueError):
    """Raised in strict mode when a sample could not be served clean.

    Carries the failing sample's position (``index``) and its first
    non-clean visit (``visit``, ``band``, ``reason``).  ``request_id``
    is stamped by :func:`audit_rejection` when the refusal is answered
    under a telemetry session — so the CLI's exit-code-2 path can point
    at the exact request that died.
    """

    def __init__(self, message: str, index: int | None = None,
                 visit: int | None = None, band: str | None = None,
                 reason: str | None = None) -> None:
        super().__init__(message)
        self.index = index
        self.visit = visit
        self.band = band
        self.reason = reason
        self.request_id: str | None = None


@dataclass
class FluxPrior:
    """Per-band flux prior used to impute masked feature slots.

    ``flux_feature`` holds the training-set mean *signed-log* flux of
    each band — the value a masked band's flux slot takes so the
    classifier sees "a typical detection" instead of garbage.  The
    neutral prior (all zeros) means "no detection".
    """

    flux_feature: np.ndarray

    def __post_init__(self) -> None:
        self.flux_feature = np.asarray(self.flux_feature, dtype=float)
        if self.flux_feature.shape != (N_BANDS,):
            raise ValueError(f"flux_feature must be ({N_BANDS},)")
        if not np.isfinite(self.flux_feature).all():
            raise ValueError("flux prior must be finite")

    @classmethod
    def neutral(cls) -> "FluxPrior":
        """The no-information prior: signed-log flux 0 in every band."""
        return cls(np.zeros(N_BANDS))

    @classmethod
    def from_dataset(cls, dataset: SupernovaDataset) -> "FluxPrior":
        """Mean signed-log true flux per band over a training dataset."""
        feature = signed_log10(dataset.true_flux)
        means = np.zeros(N_BANDS)
        for b in range(N_BANDS):
            sel = dataset.visit_band == b
            if sel.any():
                means[b] = float(feature[sel].mean())
        return cls(means)

    def save(self, directory: str | os.PathLike) -> None:
        """Write the prior as ``flux_prior.json`` inside a model dir."""
        payload = {
            "bands": [band.name for band in GRIZY],
            "flux_feature": self.flux_feature.tolist(),
        }
        atomic_write_json(os.path.join(os.fspath(directory), PRIOR_FILE), payload)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "FluxPrior | None":
        """Read ``flux_prior.json`` from a model dir; ``None`` if absent."""
        path = os.path.join(os.fspath(directory), PRIOR_FILE)
        if not os.path.exists(path):
            return None
        from ..runtime import CorruptArtifactError

        try:
            with open(path) as handle:
                payload = json.load(handle)
            return cls(np.asarray(payload["flux_feature"], dtype=float))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorruptArtifactError(path, f"unreadable flux prior: {exc}") from exc


@dataclass
class PredictionResult:
    """One served sample: probability plus how much to trust it.

    Attributes
    ----------
    index:
        Sample position in the request batch.
    probability:
        P(SNIa) from the classifier over the (possibly imputed) features.
    degraded:
        True when any used visit was repaired or rejected.
    usable_bands:
        Names of bands with at least one usable visit among the epochs
        served; empty means the score is pure prior.
    confidence:
        1.0 for a pristine sample, scaled down by the fraction of visits
        masked and the damage repaired in the kept ones (see
        :meth:`InferenceEngine._confidence`); 0.0 when everything was
        masked.
    diagnostics:
        Per-visit findings for every non-clean visit.
    flux_feature:
        Mean signed-log CNN flux over the usable visits (NaN when every
        visit was masked) — the input-side statistic the drift monitor
        tracks against the training baseline.
    error:
        ``None`` for a scored sample.  When the sample's own scoring
        failed even alone (the :func:`isolate` contract: a stream's
        lone failure, or a sample that crashed a pool worker twice), the
        ``"ExcType: message"`` string — the probability is then the 0.5
        no-information prior and ``confidence`` is 0.
    """

    index: int
    probability: float
    degraded: bool
    usable_bands: list[str]
    confidence: float
    diagnostics: list[InputDiagnostics] = field(default_factory=list)
    flux_feature: float = float("nan")
    error: str | None = None

    @classmethod
    def failed(cls, index: int, exc: BaseException) -> "PredictionResult":
        """The flagged placeholder for a sample whose scoring failed.

        Scored at the 0.5 no-information prior with zero confidence so
        downstream consumers that only read (probability, confidence)
        treat it as "know nothing" rather than silently trusting it.
        """
        return cls(
            index=index,
            probability=0.5,
            degraded=True,
            usable_bands=[],
            confidence=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (one line of the classify stream)."""
        payload = {
            "index": self.index,
            "probability": round(self.probability, 6),
            "degraded": self.degraded,
            "usable_bands": self.usable_bands,
            "confidence": round(self.confidence, 4),
            "n_repaired_visits": sum(1 for d in self.diagnostics if d.repaired),
            "n_rejected_visits": sum(1 for d in self.diagnostics if d.rejected),
            "flux_feature": (
                round(self.flux_feature, 6) if math.isfinite(self.flux_feature) else None
            ),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def to_json(self) -> str:
        """Compact single-line JSON for streaming output."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


def check_batch_shape(pairs, mjd) -> tuple[np.ndarray, np.ndarray]:
    """The model-independent batch checks: numeric ``(N, V, 2, S, S)``
    square stamp pairs and ``(N, V)`` dates; bad requests always raise."""
    pairs = np.asarray(pairs)
    mjd = np.asarray(mjd)
    if pairs.ndim != 5 or pairs.shape[2] != 2:
        raise ValueError(
            f"expected (N, V, 2, S, S) stamp pairs, got shape {pairs.shape}"
        )
    if pairs.shape[3] != pairs.shape[4]:
        raise ValueError(
            f"stamps must be square, got {pairs.shape[3]}x{pairs.shape[4]}"
        )
    if not np.issubdtype(pairs.dtype, np.number):
        raise ValueError(f"pairs must be numeric, got dtype {pairs.dtype}")
    if mjd.shape != pairs.shape[:2]:
        raise ValueError(
            f"visit_mjd shape {mjd.shape} does not match pairs {pairs.shape[:2]}"
        )
    return pairs, mjd


def isolate(
    score: Callable[[int, int], list],
    n: int,
    on_split: Callable[[Exception], None],
    failure: Exception | None = None,
) -> Iterator:
    """Score ``[0, n)`` with ``score(start, stop)``; if that raises and
    ``n > 1``, call ``on_split(exc)`` once and score every index alone.

    The one isolation path (DESIGN §10 "Isolation contract").  Yields
    one entry per index, lazily: its result, or the exception its lone
    attempt raised — the caller maps that to its own answer, and a
    caller that stops at a failure scores nothing after it.  ``failure``
    (the range already failed elsewhere) skips straight to the singles.
    :class:`~repro.serve.pool.PoolBrokenError` re-raises unsplit.
    """
    from .pool import PoolBrokenError  # pool imports this module

    if failure is None:
        try:
            results = score(0, n)
        except PoolBrokenError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation contract
            if n == 1:
                yield exc
                return
            failure = exc
        else:
            yield from results
            return
    on_split(failure)
    for i in range(n):
        try:
            single = score(i, i + 1)
        except PoolBrokenError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation contract
            yield exc
        else:
            yield from single


def stream_isolated(
    classify: Callable[..., list[PredictionResult]],
    dataset,
    step: int,
    strict: bool,
) -> Iterator[PredictionResult]:
    """Score ``dataset`` in ``step``-sample chunks and yield results in
    request order: the one streaming loop behind
    :meth:`InferenceEngine.stream` and
    :meth:`~repro.serve.pool.ScoringPool.stream`.

    ``classify(pairs, mjd, strict=, start_index=)`` scores a chunk.
    Every chunk goes through :func:`isolate`: a split is logged as
    ``serve.batch_failed`` and counted in ``serve.batch_failures``.  A
    lone failure becomes a :meth:`PredictionResult.failed`, or under
    ``strict`` ends the stream there: a strict refusal is recorded
    (:func:`audit_rejection`) and raised, and no sample after the
    culprit is scored.
    """
    if step < 1:
        raise ValueError("batch_size must be >= 1")
    for start in range(0, len(dataset), step):
        pairs = dataset.pairs[start : start + step]
        mjd = dataset.visit_mjd[start : start + step]

        def score(a: int, b: int) -> list[PredictionResult]:
            return classify(
                pairs[a:b], mjd[a:b], strict=strict, start_index=start + a
            )

        def note_failure(exc: Exception) -> None:
            session = obs.active()
            if session is not None:
                session.emit(
                    "serve.batch_failed",
                    level="error",
                    message=f"batch at {start} failed: {exc}; "
                    "scoring each sample alone",
                    start_index=start,
                    n_samples=len(pairs),
                    error_type=type(exc).__name__,
                )
                session.metrics.counter("serve.batch_failures").inc()

        outcomes = isolate(score, len(pairs), on_split=note_failure)
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                if strict:
                    if isinstance(outcome, DegradedInputError):
                        audit_rejection(outcome)
                    raise outcome
                outcome = PredictionResult.failed(start + i, outcome)
            yield outcome


#: Confidence histogram buckets: tenths of the [0, 1] range.
_CONFIDENCE_BUCKETS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def audit_results(
    session: "obs.TelemetrySession",
    results: list[PredictionResult],
    elapsed_s: float,
) -> None:
    """Write one ``serve.request`` event per scored sample plus the
    ``serve.*`` batch metrics; ``elapsed_s`` is the batch's scoring time.

    The one per-sample audit (DESIGN §9): :meth:`InferenceEngine.classify_arrays`
    calls it in-process and :meth:`~repro.serve.pool.ScoringPool.classify_arrays`
    in the pool's parent.  Failed placeholders (``error`` set) carry no
    score and are skipped.  Safe from concurrent threads: the event log
    and the metrics instruments serialise internally.
    """
    served = [result for result in results if result.error is None]
    n = len(served)
    if n == 0:
        return
    metrics = session.metrics
    latency_hist = metrics.histogram("serve.latency_s")
    confidence_hist = metrics.histogram(
        "serve.confidence", buckets=_CONFIDENCE_BUCKETS
    )
    per_sample_s = elapsed_s / n
    for result in served:
        latency_hist.observe(per_sample_s)
        confidence_hist.observe(result.confidence)
        masked = [
            band.name for band in GRIZY if band.name not in result.usable_bands
        ]
        session.emit(
            "serve.request",
            level="warning" if result.degraded else "info",
            request_id=session.new_request_id(result.index),
            index=result.index,
            probability=round(result.probability, 6),
            degraded=result.degraded,
            confidence=round(result.confidence, 4),
            usable_bands=result.usable_bands,
            masked_bands=masked,
            n_repaired_visits=sum(1 for d in result.diagnostics if d.repaired),
            n_rejected_visits=sum(1 for d in result.diagnostics if d.rejected),
            diagnostics=[d.to_dict() for d in result.diagnostics],
            flux_feature=(
                round(result.flux_feature, 6)
                if np.isfinite(result.flux_feature)
                else None
            ),
            latency_s=round(per_sample_s, 9),
            latency_bucket=latency_hist.bucket_label(per_sample_s),
        )
    metrics.counter("serve.requests").inc(n)
    metrics.counter("serve.degraded").inc(sum(r.degraded for r in served))
    metrics.counter("serve.repaired_visits").inc(
        sum(1 for r in served for d in r.diagnostics if d.repaired)
    )
    metrics.counter("serve.rejected_visits").inc(
        sum(1 for r in served for d in r.diagnostics if d.rejected)
    )


def feed_drift(
    session: "obs.TelemetrySession | None",
    monitor: DriftMonitor,
    results: list[PredictionResult],
) -> None:
    """Fold one production call's scored samples into the served
    version's drift window; under a session, also set the ``drift.*``
    gauges and write ``drift.flagged`` / ``drift.recovered`` on a
    transition.

    The one drift feed (DESIGN §9), called by the same two scorers as
    :func:`audit_results`, with or without a session.  Failed
    placeholders carry no score and are skipped.
    """
    served = [result for result in results if result.error is None]
    if not served:
        return
    report, changed = monitor.observe(
        [result.probability for result in served],
        [result.flux_feature for result in served],
    )
    if session is None:
        return
    metrics = session.metrics
    metrics.gauge("drift.score_psi").set(report.score_psi)
    metrics.gauge("drift.score_ks").set(report.score_ks)
    metrics.gauge("drift.flux_psi").set(report.flux_psi)
    metrics.gauge("drift.flux_ks").set(report.flux_ks)
    if changed and report.flagged:
        metrics.counter("drift.flagged").inc()
        session.emit(
            "drift.flagged",
            level="warning",
            message="served distribution drifted from the training baseline: "
            + "; ".join(report.reasons),
            **report.to_dict(),
        )
    elif changed:
        session.emit(
            "drift.recovered",
            message="served distribution back within the training baseline",
            **report.to_dict(),
        )


def warn_no_drift_baseline(directory: str | os.PathLike) -> None:
    """Under a telemetry session, write the ``serve.no_drift_baseline``
    warning for a model directory loaded to serve without a baseline.

    Written once per served model, by whoever reads the directory's
    baseline for the scorer: :meth:`InferenceEngine.from_directory`, or
    :meth:`~repro.serve.pool.ScoringPool.start` for a pool built from a
    directory.
    """
    session = obs.active()
    if session is not None:
        session.emit(
            "serve.no_drift_baseline",
            level="warning",
            message=(
                f"model dir {os.fspath(directory)} has no drift baseline; "
                "drift monitoring and drift-triggered rollback are disabled"
            ),
            model_dir=os.fspath(directory),
        )


def audit_rejection(exc: DegradedInputError) -> None:
    """Under a telemetry session, record one strict refusal: stamp
    ``exc.request_id`` and write the single ``serve.rejected`` event and
    counter.

    Called only where the refusal becomes an answer (DESIGN §9):
    :func:`stream_isolated` when it raises it, and the daemon before
    its 422.  Scoring itself (:meth:`InferenceEngine.score_arrays`)
    raises without recording, so a batch attempt that the isolation
    path re-scores sample by sample leaves no second record.
    """
    session = obs.active()
    if session is None:
        return
    exc.request_id = session.new_request_id(exc.index)
    session.emit(
        "serve.rejected",
        level="error",
        request_id=exc.request_id,
        index=exc.index,
        visit=exc.visit,
        band=exc.band,
        reason=exc.reason,
    )
    session.metrics.counter("serve.rejected").inc()


class InferenceEngine:
    """Degradation-tolerant classification over a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A :class:`SupernovaPipeline` with (at least) stages 1-2 fitted.
    prior:
        Per-band flux prior for imputing masked feature slots; defaults
        to the neutral (no-detection) prior.
    drift_baseline:
        Optional committed training-set :class:`~repro.obs.drift.DriftBaseline`;
        when present, the scores and flux features of every
        :meth:`classify_arrays` call feed this engine's
        :class:`~repro.obs.drift.DriftMonitor` (:func:`feed_drift`),
        which under a telemetry session writes ``drift.flagged`` events
        past its thresholds.  A serving daemon's rollback guard reads the
        same monitor.
    fused:
        When True (default) the CNN stage runs the whole flattened
        ``(N·V)`` visit batch through :meth:`BandwiseCNN.fused_forward`
        in one pass instead of the chunked
        :meth:`~repro.core.flux_cnn.BandwiseCNN.predict` path.  The two
        are bit-identical: a sample's result depends on the sample
        alone, whatever the batch, chunk or shard it is scored in.
    """

    def __init__(
        self,
        pipeline: SupernovaPipeline,
        prior: FluxPrior | None = None,
        drift_baseline: DriftBaseline | None = None,
        fused: bool = True,
    ) -> None:
        self.pipeline = pipeline
        self.prior = prior or FluxPrior.neutral()
        self.fused = bool(fused) and hasattr(pipeline.cnn, "fused_forward")
        self.drift_baseline = drift_baseline
        self.drift_monitor = (
            DriftMonitor(drift_baseline) if drift_baseline is not None else None
        )
        #: Chaos-only seam: when set, called with the classifier's raw
        #: probability array and its return value is served instead
        #: (see :class:`repro.runtime.faults.ShiftScores`).  Never set
        #: in production paths.
        self.score_hook = None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_directory(
        cls,
        directory: str,
        fused: bool = True,
    ) -> "InferenceEngine":
        """Build an engine from a :meth:`SupernovaPipeline.save` directory.

        Reads the architecture manifest and, when present, the
        ``flux_prior.json`` written by :meth:`save`; raises
        :class:`~repro.runtime.errors.CorruptArtifactError` on truncated
        or inconsistent artifacts.
        """
        pipeline = SupernovaPipeline.load(directory)
        prior = FluxPrior.load(directory)
        baseline = DriftBaseline.load(directory)
        if baseline is None:
            warn_no_drift_baseline(directory)
        return cls(pipeline, prior=prior, drift_baseline=baseline, fused=fused)

    @classmethod
    def from_directory_unmonitored(cls, directory: str) -> "InferenceEngine":
        """An engine over a model directory's pipeline and flux prior,
        without its drift baseline (and so without the missing-baseline
        warning): for scoring that feeds no drift monitor, such as the
        promote gate and a pool-mode daemon's validating engine."""
        return cls(SupernovaPipeline.load(directory), prior=FluxPrior.load(directory))

    def save(self, directory: str) -> None:
        """Persist the pipeline, flux prior and (if set) drift baseline."""
        self.pipeline.save(directory)
        self.prior.save(directory)
        if self.drift_baseline is not None:
            self.drift_baseline.save(directory)

    def fit_drift_baseline(self, dataset: SupernovaDataset) -> DriftBaseline:
        """Capture the serving-drift baseline from a (training) dataset.

        Scores the dataset through this engine's own path and bins the
        resulting scores and per-sample flux features — i.e. the
        baseline measures exactly the distributions the drift monitor
        will see at serve time.  Scoring goes through
        :meth:`score_arrays`, so training samples are neither audited
        as production traffic nor fed to a monitor.  Sets
        :attr:`drift_baseline` (persisted by :meth:`save`) and arms
        :attr:`drift_monitor`.
        """
        results = self.score_arrays(dataset.pairs, dataset.visit_mjd, False, 0)
        scores = np.array([r.probability for r in results], dtype=float)
        flux = np.array([r.flux_feature for r in results], dtype=float)
        flux = flux[np.isfinite(flux)]
        self.drift_baseline = DriftBaseline.from_samples(
            scores, flux if flux.size else None
        )
        self.drift_monitor = DriftMonitor(self.drift_baseline)
        return self.drift_baseline

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def _n_used_visits(self) -> int:
        return self.pipeline.epochs_used * N_BANDS

    def _validate_batch(self, pairs: np.ndarray, mjd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch-level shape/dtype checks; bad requests always raise."""
        pairs, mjd = check_batch_shape(pairs, mjd)
        used = self._n_used_visits
        if pairs.shape[1] < used:
            raise ValueError(
                f"pipeline serves {self.pipeline.epochs_used} epoch(s) = {used} "
                f"visits, but samples carry only {pairs.shape[1]}"
            )
        if pairs.shape[1] % N_BANDS != 0:
            raise ValueError(
                f"visit count {pairs.shape[1]} is not a multiple of {N_BANDS} bands"
            )
        if pairs.shape[-1] < self.pipeline.input_size:
            raise ValueError(
                f"stamps of size {pairs.shape[-1]} are smaller than the CNN "
                f"input size {self.pipeline.input_size}"
            )
        return (
            pairs[:, :used].astype(np.float32, copy=False),
            # float32 keeps the whole serving path single-precision; MJD
            # rounding (<0.01 day) is far below the 50-day feature scale.
            np.asarray(mjd[:, :used]).astype(np.float32, copy=False),
        )

    def _confidence(self, usable: np.ndarray, diags: list[InputDiagnostics]) -> float:
        """Confidence downgrade: coverage times residual repair damage."""
        coverage = float(usable.mean()) if usable.size else 0.0
        repaired = [d for d in diags if d.repaired and not d.rejected]
        damage = float(np.mean([d.bad_fraction for d in repaired])) if repaired else 0.0
        return round(coverage * (1.0 - damage), 6)

    def classify_arrays(
        self,
        pairs: np.ndarray,
        mjd: np.ndarray,
        strict: bool = False,
        start_index: int = 0,
    ) -> list[PredictionResult]:
        """Serve a batch of raw ``(N, V, 2, S, S)`` pairs and ``(N, V)`` dates.

        Only the pipeline's first ``epochs_used`` epochs are consumed.
        Returns one :class:`PredictionResult` per sample; degraded
        samples are flagged, not raised — except in strict mode, where
        the first degradation aborts with :class:`DegradedInputError`.
        Under a telemetry session every sample is audited
        (:func:`audit_results`); with a drift baseline every sample
        feeds the drift monitor (:func:`feed_drift`).
        """
        session = obs.active()
        t_start = time.perf_counter()
        results = self.score_arrays(pairs, mjd, strict, start_index)
        if session is not None:
            audit_results(session, results, time.perf_counter() - t_start)
        if self.drift_monitor is not None:
            feed_drift(session, self.drift_monitor, results)
        return results

    def score_arrays(
        self,
        pairs: np.ndarray,
        mjd: np.ndarray,
        strict: bool,
        start_index: int,
    ) -> list[PredictionResult]:
        """:meth:`classify_arrays` without the audit: the same results,
        but no ``serve.request`` events, ``serve.*`` metrics or drift
        feed.  Pool workers score their shards and ``repro models
        promote --gate`` scores its dataset through this, so neither
        passes for production traffic.  A strict
        refusal raises before the CNN and records nothing: the caller
        that answers it does (:func:`audit_rejection`).
        """
        pairs, mjd = self._validate_batch(pairs, mjd)
        n, used = pairs.shape[0], self._n_used_visits
        stamp = pairs.shape[-1]

        # Validate/repair every visit of the batch in one vectorised pass
        # over the flattened (N*V) visit axis.
        with _trace.span("serve.repair", n_samples=n):
            flat_pairs = np.ascontiguousarray(pairs.reshape(n * used, 2, stamp, stamp))
            visit_ids = np.tile(np.arange(used), n)
            repaired_flat, flat_diags, kept = diagnose_and_repair_batch(
                flat_pairs, visit_ids
            )
        mjd_ok = np.isfinite(mjd)
        usable = kept.reshape(n, used) & mjd_ok
        for i, v in zip(*np.nonzero(~mjd_ok)):
            diag = flat_diags[i * used + v]
            if not diag.rejected:
                diag.rejected = True
                diag.repaired = False
                diag.reason = "non-finite observation date"

        all_diags: list[list[InputDiagnostics]] = []
        for i in range(n):
            diags = [d for d in flat_diags[i * used : (i + 1) * used] if not d.clean]
            if strict and diags:
                worst = diags[0]
                index = start_index + i
                reason = worst.reason or "repaired input"
                raise DegradedInputError(
                    f"sample {index} is degraded (visit {worst.visit}, "
                    f"band {worst.band}: {reason}); "
                    "re-run without --strict to serve it with masking",
                    index=index,
                    visit=worst.visit,
                    band=worst.band,
                    reason=reason,
                )
            all_diags.append(diags)

        # Batched CNN magnitudes for the usable visits only.
        flux = np.zeros((n, used), dtype=np.float32)
        flat_idx = np.flatnonzero(usable.reshape(-1))
        if flat_idx.size:
            # Clean traffic keeps every visit; skip the fancy-index copy
            # and hand the repaired batch to the CNN as-is.
            if flat_idx.size == repaired_flat.shape[0]:
                cnn_input = repaired_flat
            else:
                cnn_input = repaired_flat[flat_idx]
            with _trace.span("serve.cnn", n_visits=int(flat_idx.size)):
                if self.fused:
                    mags = self.pipeline.cnn.fused_forward(cnn_input)
                else:
                    mags = self.pipeline.cnn.predict(cnn_input)
            flux.reshape(-1)[flat_idx] = 10.0 ** (-0.4 * (mags - 27.0))

        with _trace.span("serve.features"):
            features = masked_features_from_arrays(
                flux,
                mjd,
                usable,
                self.pipeline.epochs_used,
                self.pipeline.epochs_used,
                prior_flux_feature=self.prior.flux_feature,
            )
            probs = self.pipeline.classifier.predict_proba(features)
        if self.score_hook is not None:
            probs = np.asarray(self.score_hook(probs))

        # Per-sample mean signed-log flux over usable visits: the
        # input-side statistic the drift monitor compares to training.
        flux_log = signed_log10(flux)
        n_usable = usable.sum(axis=1)
        with np.errstate(invalid="ignore"):
            flux_feature = np.where(
                n_usable > 0,
                (flux_log * usable).sum(axis=1) / np.maximum(n_usable, 1),
                np.nan,
            )

        results = []
        for i in range(n):
            present = {int(v) % N_BANDS for v in np.flatnonzero(usable[i])}
            bands = [band.name for band in GRIZY if band.index in present]
            results.append(
                PredictionResult(
                    index=start_index + i,
                    probability=float(probs[i]),
                    degraded=bool(all_diags[i]),
                    usable_bands=bands,
                    confidence=self._confidence(usable[i], all_diags[i]),
                    diagnostics=all_diags[i],
                    flux_feature=float(flux_feature[i]),
                )
            )
        return results

    def classify(
        self, dataset: SupernovaDataset, strict: bool = False
    ) -> list[PredictionResult]:
        """Serve every sample of a dataset (see :meth:`classify_arrays`)."""
        return self.classify_arrays(dataset.pairs, dataset.visit_mjd, strict=strict)

    def stream(
        self,
        dataset: SupernovaDataset,
        batch_size: int = 64,
        strict: bool = False,
    ) -> Iterator[PredictionResult]:
        """Yield :class:`PredictionResult` objects batch by batch.

        The classify CLI consumes this to emit per-sample JSON lines as
        soon as each batch clears the CNN, rather than after the whole
        dataset.  Every batch goes through :func:`stream_isolated`, so
        only a culprit sample fails: as a :meth:`PredictionResult.failed`
        placeholder, or in strict mode by ending the stream with the
        recorded refusal.  To score on
        several cores, stream through a
        :class:`~repro.serve.pool.ScoringPool` instead.
        """
        return stream_isolated(self.classify_arrays, dataset, batch_size, strict)
