"""Score/flux drift monitoring against a committed training baseline.

Single-epoch classification degrades *silently*: a feed whose bands
stopped arriving, or whose photometric calibration slid, still produces
probabilities — they just stop meaning anything.  The serving layer
therefore compares the rolling distribution of what it outputs (the
classifier score) and what it sees (the mean signed-log flux feature per
sample) against a :class:`DriftBaseline` captured from the training set
and committed next to the model weights:

* **PSI** (population stability index) over the baseline's fixed bins —
  the standard "has the population shifted" number; > 0.25 is the
  conventional "act now" threshold;
* **KS** (two-sample Kolmogorov–Smirnov statistic, evaluated on the bin
  grid) — sensitive to localised shape changes PSI smears out.

:class:`DriftMonitor` keeps a rolling window of the last :data:`WINDOW`
samples, is thread-safe (serving threads feed it concurrently), and
reports a :class:`DriftReport` whose ``flagged`` bit trips when either
statistic of either distribution crosses its threshold with at least
:data:`MIN_SAMPLES` samples in the window.  Each served model version
has one monitor, held by the scorer that serves it (the in-process
engine or the scoring pool's parent).  The scorer's feed
(:func:`repro.serve.engine.feed_drift`) writes a ``drift.flagged`` event
on the clean → drifted transition (and ``drift.recovered`` on the way
back), so a quiet feed stays quiet, and the serving daemon's rollback
guard reads the same monitor's verdict.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..runtime.checkpoint import atomic_write_json

__all__ = [
    "BASELINE_FILE",
    "PSI_THRESHOLD",
    "KS_THRESHOLD",
    "WINDOW",
    "MIN_SAMPLES",
    "N_BINS",
    "DriftBaseline",
    "DriftMonitor",
    "DriftReport",
    "psi_statistic",
    "ks_statistic",
]

#: File name of the committed baseline inside a model directory.
BASELINE_FILE = "drift_baseline.json"

#: Trip level of the population stability index, scores and flux alike.
PSI_THRESHOLD = 0.25

#: Trip level of the Kolmogorov–Smirnov statistic, scores and flux alike.
KS_THRESHOLD = 0.30

#: Most recent served samples a monitor's window holds: small enough
#: that the rollback guard acts within seconds of a bad promote.
WINDOW = 200

#: Fewest window samples a statistic is evaluated on: PSI on a handful
#: of scores is noise, not signal.
MIN_SAMPLES = 50

#: Bins of each baseline histogram, scores and flux alike.
N_BINS = 20

_EPS = 1e-4


def _histogram_probs(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(samples, bins=edges)
    total = counts.sum()
    if total == 0:
        return np.full(len(edges) - 1, 1.0 / (len(edges) - 1))
    return counts / total


def psi_statistic(expected: np.ndarray, observed: np.ndarray) -> float:
    """Population stability index between two probability vectors.

    Both vectors live on the same bins; zero cells are floored at a
    small epsilon so one empty bucket cannot produce an infinite PSI.
    """
    expected = np.clip(np.asarray(expected, dtype=float), _EPS, None)
    observed = np.clip(np.asarray(observed, dtype=float), _EPS, None)
    expected = expected / expected.sum()
    observed = observed / observed.sum()
    return float(np.sum((observed - expected) * np.log(observed / expected)))


def ks_statistic(expected: np.ndarray, observed: np.ndarray) -> float:
    """Max CDF distance between two binned probability vectors."""
    expected = np.asarray(expected, dtype=float)
    observed = np.asarray(observed, dtype=float)
    e = expected / max(expected.sum(), _EPS)
    o = observed / max(observed.sum(), _EPS)
    return float(np.max(np.abs(np.cumsum(e) - np.cumsum(o))))


@dataclass
class DriftBaseline:
    """Binned reference distributions captured at training time.

    ``score_edges`` / ``score_probs`` bin the classifier probability on
    ``[0, 1]``; ``flux_edges`` / ``flux_probs`` (optional) bin the mean
    signed-log flux feature per sample.  ``n`` records how many training
    samples the baseline summarises.
    """

    score_edges: np.ndarray
    score_probs: np.ndarray
    flux_edges: np.ndarray | None = None
    flux_probs: np.ndarray | None = None
    n: int = 0

    def __post_init__(self) -> None:
        self.score_edges = np.asarray(self.score_edges, dtype=float)
        self.score_probs = np.asarray(self.score_probs, dtype=float)
        if self.score_edges.ndim != 1 or len(self.score_edges) < 3:
            raise ValueError("score_edges must be a 1-D array of >= 3 bin edges")
        if len(self.score_probs) != len(self.score_edges) - 1:
            raise ValueError("score_probs must have one entry per bin")
        if self.flux_edges is not None:
            self.flux_edges = np.asarray(self.flux_edges, dtype=float)
            self.flux_probs = np.asarray(self.flux_probs, dtype=float)
            if len(self.flux_probs) != len(self.flux_edges) - 1:
                raise ValueError("flux_probs must have one entry per bin")

    @classmethod
    def from_samples(
        cls,
        scores: np.ndarray,
        flux: np.ndarray | None = None,
    ) -> "DriftBaseline":
        """Bin training-set scores (and optionally flux features).

        Score bins are fixed on ``[0, 1]``; flux bins span the observed
        range widened by 10% so serving values just outside the training
        range do not all collapse into the edge bins.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        if scores.size == 0:
            raise ValueError("cannot build a drift baseline from zero scores")
        score_edges = np.linspace(0.0, 1.0, N_BINS + 1)
        flux_edges = flux_probs = None
        if flux is not None:
            flux = np.asarray(flux, dtype=float).ravel()
            lo, hi = float(np.min(flux)), float(np.max(flux))
            pad = 0.1 * max(hi - lo, 1e-6)
            flux_edges = np.linspace(lo - pad, hi + pad, N_BINS + 1)
            flux_probs = _histogram_probs(flux, flux_edges)
        return cls(
            score_edges=score_edges,
            score_probs=_histogram_probs(scores, score_edges),
            flux_edges=flux_edges,
            flux_probs=flux_probs,
            n=int(scores.size),
        )

    def save(self, directory: str | os.PathLike) -> None:
        """Write ``drift_baseline.json`` into a model directory."""
        payload = {
            "score_edges": self.score_edges.tolist(),
            "score_probs": self.score_probs.tolist(),
            "n": self.n,
        }
        if self.flux_edges is not None:
            payload["flux_edges"] = self.flux_edges.tolist()
            payload["flux_probs"] = self.flux_probs.tolist()
        atomic_write_json(os.path.join(os.fspath(directory), BASELINE_FILE), payload)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "DriftBaseline | None":
        """Read the committed baseline from a model dir; ``None`` if absent."""
        path = os.path.join(os.fspath(directory), BASELINE_FILE)
        if not os.path.exists(path):
            return None
        from ..runtime import CorruptArtifactError

        try:
            with open(path) as handle:
                payload = json.load(handle)
            return cls(
                score_edges=np.asarray(payload["score_edges"], dtype=float),
                score_probs=np.asarray(payload["score_probs"], dtype=float),
                flux_edges=(
                    np.asarray(payload["flux_edges"], dtype=float)
                    if "flux_edges" in payload
                    else None
                ),
                flux_probs=(
                    np.asarray(payload["flux_probs"], dtype=float)
                    if "flux_probs" in payload
                    else None
                ),
                n=int(payload.get("n", 0)),
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CorruptArtifactError(path, f"unreadable drift baseline: {exc}") from exc


@dataclass
class DriftReport:
    """One evaluation of the rolling window against the baseline."""

    n_window: int
    score_psi: float = 0.0
    score_ks: float = 0.0
    flux_psi: float = 0.0
    flux_ks: float = 0.0
    flagged: bool = False
    reasons: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready form (embedded in ``drift.flagged`` events)."""
        return {
            "n_window": self.n_window,
            "score_psi": round(self.score_psi, 6),
            "score_ks": round(self.score_ks, 6),
            "flux_psi": round(self.flux_psi, 6),
            "flux_ks": round(self.flux_ks, 6),
            "flagged": self.flagged,
            "reasons": list(self.reasons),
        }


class DriftMonitor:
    """Rolling-window drift detector over served scores (and flux).

    Holds the last :data:`WINDOW` samples.  A window of at least
    :data:`MIN_SAMPLES` flags when any statistic, of scores or flux,
    exceeds its trip level: :data:`PSI_THRESHOLD` or
    :data:`KS_THRESHOLD`.
    """

    def __init__(self, baseline: DriftBaseline) -> None:
        self.baseline = baseline
        self._scores: deque[float] = deque(maxlen=WINDOW)
        self._flux: deque[float] = deque(maxlen=WINDOW)
        self._lock = threading.Lock()
        #: The last evaluation of the window.
        self.report = DriftReport(n_window=0)

    def observe(
        self,
        scores: np.ndarray | list[float] | float,
        flux: np.ndarray | list[float] | float | None = None,
    ) -> tuple[DriftReport, bool]:
        """Fold served sample scores (and flux features) into the window
        and evaluate it.

        Returns the report and whether its ``flagged`` bit differs from
        the previous report's.  One lock covers both, so concurrent
        feeders see each transition exactly once.
        """
        scores = np.atleast_1d(np.asarray(scores, dtype=float))
        flux_arr = (
            None if flux is None else np.atleast_1d(np.asarray(flux, dtype=float))
        )
        with self._lock:
            self._scores.extend(float(s) for s in scores)
            if flux_arr is not None:
                self._flux.extend(float(f) for f in flux_arr if np.isfinite(f))
            report = self._evaluate()
            changed = report.flagged != self.report.flagged
            self.report = report
        return report, changed

    def _evaluate(self) -> DriftReport:
        base = self.baseline
        report = DriftReport(n_window=len(self._scores))
        series = [("score", np.clip(np.asarray(self._scores, dtype=float), 0.0, 1.0),
                   base.score_edges, base.score_probs)]
        if base.flux_edges is not None:
            series.append(("flux", np.asarray(self._flux, dtype=float),
                           base.flux_edges, base.flux_probs))
        for name, window, edges, probs in series:
            if window.size < MIN_SAMPLES:
                continue
            observed = _histogram_probs(window, edges)
            psi = psi_statistic(probs, observed)
            ks = ks_statistic(probs, observed)
            setattr(report, f"{name}_psi", psi)
            setattr(report, f"{name}_ks", ks)
            if psi > PSI_THRESHOLD:
                report.reasons.append(f"{name} PSI {psi:.3f} > {PSI_THRESHOLD}")
            if ks > KS_THRESHOLD:
                report.reasons.append(f"{name} KS {ks:.3f} > {KS_THRESHOLD}")
        report.flagged = bool(report.reasons)
        return report
