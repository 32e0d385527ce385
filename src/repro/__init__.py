"""Reproduction of "Single-epoch supernova classification with deep
convolutional neural networks" (Kimura et al., ICDCS 2017).

Subpackages
-----------
``repro.nn``
    NumPy deep-learning framework (autograd, CNN layers, optimisers).
``repro.photometry`` / ``repro.lightcurves`` / ``repro.cosmology``
    Astronomy substrate: bands, magnitudes, SALT2-like light curves,
    flat Lambda-CDM distances.
``repro.catalog`` / ``repro.survey``
    COSMOS-like galaxy catalogue and the imaging simulator (PSFs, noise,
    scheduling, PSF-matched differencing).
``repro.datasets``
    The Section-3 synthetic dataset builder.
``repro.core``
    The paper's models: band-wise flux CNN, highway-network classifier,
    joint fine-tuned model, and the :class:`~repro.core.SupernovaPipeline`
    facade.
``repro.baselines``
    Table-2 comparators (template fitting, Bayesian single-epoch, random
    forest, recurrent network).
``repro.eval``
    ROC curves, AUC, point metrics.
``repro.runtime``
    Resilience runtime: atomic checkpoints, resume, divergence guards,
    per-sample fault isolation and fault injection.
``repro.serve``
    Hardened inference: input validation/repair, band masking with
    prior imputation, degradation-flagged predictions.
``repro.obs``
    Telemetry: structured events, metrics, drift watch, and the one
    instrumentation primitive — ``obs.span`` / ``obs.record`` feed
    ``trace.<name>_s`` histograms (and, for sampled requests, span
    events) under an ``obs.start`` session.
"""

from . import (
    baselines,
    catalog,
    core,
    cosmology,
    datasets,
    eval,
    lightcurves,
    nn,
    obs,
    photometry,
    runtime,
    serve,
    survey,
    utils,
)

__version__ = "1.0.0"

__all__ = [
    "nn",
    "cosmology",
    "photometry",
    "lightcurves",
    "catalog",
    "survey",
    "datasets",
    "core",
    "baselines",
    "eval",
    "runtime",
    "serve",
    "obs",
    "utils",
    "__version__",
]
