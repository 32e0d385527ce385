"""Command-line interface.

The subcommands cover the full workflow::

    python -m repro.cli build-dataset --n-ia 100 --n-non-ia 100 --out ds.npz
    python -m repro.cli train-flux-cnn --dataset ds.npz --out cnn.npz
    python -m repro.cli train-classifier --dataset ds.npz --out clf.npz
    python -m repro.cli evaluate --dataset ds.npz --classifier clf.npz
    python -m repro.cli classify --model model_dir/ --dataset ds.npz
    python -m repro.cli serve --model model_dir/ --port 8350
    python -m repro.cli models register --registry reg/ --model model_dir/
    python -m repro.cli models promote v2 --registry reg/ --gate ds.npz
    python -m repro.cli metrics telemetry_dir/

``classify`` is the degradation-tolerant batch serving path: it loads a
pipeline directory written by
:meth:`~repro.core.pipeline.SupernovaPipeline.save` and streams one JSON
result per sample, masking and imputing missing or damaged bands instead
of crashing.  Degraded-but-served traffic exits ``0``; ``--strict``
refuses it with exit code ``2`` instead.

``serve`` is the persistent flavour of the same path: a warm
:class:`~repro.serve.ServingDaemon` that coalesces concurrent HTTP
requests into micro-batches behind admission control, per-request
deadlines, poison-request isolation, a wedge deadline and graceful
drain on SIGTERM/SIGINT (see :mod:`repro.serve.daemon`).  With
``--scoring-workers N`` the wedge deadline is the pool's per-gather
deadline: the silent worker is terminated, its shard healed and no
thread restarted.

``models`` manages the versioned model registry
(:mod:`repro.registry`): ``register`` copies a saved model directory in
as an immutable checksummed version, ``promote`` makes it production
(``--gate DATASET`` first scores the dataset on production and on the
candidate and refuses a mean |Δp| over budget, ``--force`` overrides a
quarantine), ``rollback`` reinstates the last-known-good version, ``gc``
prunes old retired/rolled-back version directories.  ``serve --registry
DIR`` serves the registry's production version and follows
promotes/rollbacks live (hot reload and drift-triggered automatic
rollback).

Datasets are ``.npz`` archives written by :mod:`repro.datasets.io`;
models are ``.npz`` state dicts written by :mod:`repro.nn.serialization`.

Long-running commands are resumable: ``build-dataset`` and the two
training commands accept ``--checkpoint PATH`` (plus
``--checkpoint-every N``) to snapshot progress atomically, and
``--resume`` to continue a killed run from that checkpoint.
``build-dataset --workers N`` renders sample slots across ``N``
processes; per-sample seeding makes the output bit-identical to a
serial build, and checkpoints are interchangeable between the two.

Exit codes (the one authoritative table — ``classify`` and ``serve``
share it, and with ``--telemetry`` every non-zero path leaves a terminal
``cli.error`` event carrying the same code):

====  ==============================================================
code  meaning
====  ==============================================================
0     success — including degraded-but-served traffic and a graceful
      daemon drain on SIGTERM/SIGINT
2     bad input: missing/unreadable paths, malformed arrays, strict-
      mode refusal of a degraded sample
3     corrupt artifact: truncated archive or checksum/manifest
      mismatch
4     unrecoverable runtime failure: training diverged beyond its
      retry budget, or the serve daemon's scoring-worker restart
      budget was exhausted
====  ==============================================================
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import obs
from .core import (
    BandwiseCNN,
    LightCurveClassifier,
    TrainConfig,
    fit_classifier,
    fit_regressor,
    make_pair_augmenter,
)
from .core.features import dataset_windowed_features
from .datasets import BuildConfig, DatasetBuilder, load_dataset, save_dataset, train_val_test_split
from .eval import auc_score, roc_curve
from .nn import load_module, save_module
from .registry import GATE_MIN_SAMPLES, RegistryError, gate_verdict
from .runtime import BuildAborted, CorruptArtifactError, TrainingDiverged, file_sha256

__all__ = ["main", "build_parser"]

#: Exit codes for the structured failure modes.
EXIT_BAD_INPUT = 2
EXIT_CORRUPT_ARTIFACT = 3
EXIT_DIVERGED = 4


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write structured telemetry (events.jsonl + metrics.json) into "
        "DIR; summarize it later with `repro metrics DIR`",
    )


def _note(message: str, event: str = "cli.note", level: str = "info",
          **fields: object) -> None:
    """Progress/summary reporting funnel.

    With telemetry enabled the line becomes a structured event; without
    it the human-readable rendering goes to stderr (stdout is reserved
    for command output such as the classify JSON stream).
    """
    session = obs.active()
    if session is not None:
        session.emit(event, level=level, message=message, **fields)
    else:
        print(message, file=sys.stderr)


def _fail(exc: BaseException, code: int, prefix: str = "error: ") -> int:
    """Report a structured failure: stderr line plus a terminal event.

    The event carries the exit code and, when the exception knows them
    (strict-mode :class:`~repro.serve.DegradedInputError`), the sample
    index and ``request_id`` that failed — so an exit-2/3 run is
    traceable from the telemetry stream alone.
    """
    print(f"{prefix}{exc}", file=sys.stderr)
    session = obs.active()
    if session is not None:
        fields: dict[str, object] = {
            "error_type": type(exc).__name__,
            "exit_code": code,
        }
        if getattr(exc, "index", None) is not None:
            fields["index"] = exc.index
        if getattr(exc, "request_id", None):
            fields["request_id"] = exc.request_id
        # CorruptArtifactError knows the *file* that failed validation;
        # surfacing it makes an exit-3 run diagnosable from telemetry.
        if getattr(exc, "path", None):
            fields["path"] = os.fspath(exc.path)
        session.emit("cli.error", level="error", message=str(exc), **fields)
    return code


def _add_checkpoint_args(parser: argparse.ArgumentParser, default_every: int) -> None:
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write an atomic progress checkpoint here",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=default_every, metavar="N",
        help="checkpoint interval (epochs for training, samples for builds)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it exists",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Single-epoch supernova classification (Kimura et al. 2017) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-dataset", help="generate a synthetic dataset")
    build.add_argument("--n-ia", type=int, default=100, help="SNIa samples")
    build.add_argument("--n-non-ia", type=int, default=100, help="non-Ia samples")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--no-images", action="store_true", help="light curves only")
    build.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="render sample slots across N processes (1 = serial; the "
        "dataset is bit-identical either way)",
    )
    build.add_argument("--out", required=True, help="output .npz path")
    build.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON build report (quarantined samples) here",
    )
    build.add_argument(
        "--stamp-size", type=int, default=None, metavar="PX",
        help="cutout side length in pixels (default: the paper's 65)",
    )
    build.add_argument(
        "--catalog-size", type=int, default=None, metavar="N",
        help="size of the synthetic host-galaxy catalog (default 5000)",
    )
    _add_checkpoint_args(build, default_every=200)
    _add_telemetry_arg(build)

    cnn = sub.add_parser("train-flux-cnn", help="train the band-wise CNN (Fig. 7)")
    cnn.add_argument("--dataset", required=True)
    cnn.add_argument("--input-size", type=int, default=60)
    cnn.add_argument("--epochs", type=int, default=10)
    cnn.add_argument("--batch-size", type=int, default=64)
    cnn.add_argument("--learning-rate", type=float, default=5e-4)
    cnn.add_argument("--seed", type=int, default=0)
    cnn.add_argument("--out", required=True, help="output weights .npz path")
    _add_checkpoint_args(cnn, default_every=1)
    _add_telemetry_arg(cnn)

    clf = sub.add_parser("train-classifier", help="train the highway classifier (Fig. 6)")
    clf.add_argument("--dataset", required=True)
    clf.add_argument("--epochs-used", type=int, default=1, help="observation epochs per feature")
    clf.add_argument("--units", type=int, default=100)
    clf.add_argument("--epochs", type=int, default=40)
    clf.add_argument("--seed", type=int, default=0)
    clf.add_argument("--out", required=True, help="output weights .npz path")
    _add_checkpoint_args(clf, default_every=1)
    _add_telemetry_arg(clf)

    ev = sub.add_parser("evaluate", help="evaluate a trained classifier")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--classifier", required=True)
    ev.add_argument("--epochs-used", type=int, default=1)
    ev.add_argument("--units", type=int, default=100)

    cl = sub.add_parser(
        "classify", help="serve degradation-tolerant per-sample predictions"
    )
    cl.add_argument(
        "--model", required=True, metavar="DIR",
        help="pipeline directory written by SupernovaPipeline.save",
    )
    cl.add_argument("--dataset", required=True, help="input .npz dataset")
    cl.add_argument(
        "--strict", action="store_true",
        help="refuse degraded samples (exit 2) instead of masking them",
    )
    cl.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL result stream here instead of stdout",
    )
    cl.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="samples per inference batch (results stream per batch)",
    )
    cl.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="score on N worker processes (a shared-memory ScoringPool), "
        "each taking one --batch-size shard per round; results still "
        "stream in order.  1 (the default) scores in this process",
    )
    _add_telemetry_arg(cl)

    srv = sub.add_parser(
        "serve", help="run the persistent micro-batching serving daemon"
    )
    srv.add_argument(
        "--model", default=None, metavar="DIR",
        help="pipeline directory written by SupernovaPipeline.save "
        "(exactly one of --model / --registry)",
    )
    srv.add_argument(
        "--registry", default=None, metavar="DIR",
        help="serve the production version of this model registry and "
        "follow promotes/rollbacks live (hot reload + automatic rollback)",
    )
    srv.add_argument(
        "--reload-poll-s", type=float, default=0.25, metavar="S",
        help="how often the registry version watcher re-reads registry.json",
    )
    srv.add_argument(
        "--sustained-drift-checks", type=int, default=3, metavar="N",
        help="consecutive flagged drift evaluations before auto-rollback",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="bind port (0 = pick a free port; the chosen port is printed)",
    )
    srv.add_argument(
        "--batch-max-size", type=int, default=16, metavar="N",
        help="max requests coalesced into one scoring batch",
    )
    srv.add_argument(
        "--batch-deadline-ms", type=float, default=10.0, metavar="MS",
        help="max time the oldest queued request waits for batch-mates",
    )
    srv.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="hard admission limit; beyond it requests are shed with 429",
    )
    srv.add_argument(
        "--request-deadline-ms", type=float, default=2000.0, metavar="MS",
        help="default per-request deadline (typed 504 past it)",
    )
    srv.add_argument(
        "--wedge-timeout-s", type=float, default=5.0, metavar="S",
        help="scoring calls older than this get the scoring thread restarted; "
        "with --scoring-workers N the pool terminates the silent worker "
        "and heals its shard instead (no thread restart)",
    )
    srv.add_argument(
        "--scoring-workers", type=int, default=0, metavar="N",
        help="scatter each scoring micro-batch across N warm worker "
        "processes over shared memory (0 = score in-process); BLAS "
        "threads are split N ways so the workers never oversubscribe",
    )
    srv.add_argument(
        "--strict", action="store_true",
        help="refuse degraded samples with a typed 422 instead of masking",
    )
    srv.add_argument(
        "--trace", action="store_true",
        help="record every request's span tree into the telemetry "
        "directory (requires --telemetry); analyze with `repro trace DIR`",
    )
    _add_telemetry_arg(srv)

    mod = sub.add_parser(
        "models", help="manage the versioned model registry"
    )
    modsub = mod.add_subparsers(dest="models_command", required=True)

    def _registry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--registry", required=True, metavar="DIR",
            help="registry root (created on first register)",
        )

    m_list = modsub.add_parser("list", help="list versions and their statuses")
    _registry_arg(m_list)
    m_list.add_argument(
        "--json", action="store_true", help="dump the raw registry state as JSON"
    )
    m_reg = modsub.add_parser(
        "register", help="copy a saved model dir in as the next version"
    )
    _registry_arg(m_reg)
    m_reg.add_argument(
        "--model", required=True, metavar="DIR",
        help="pipeline directory written by SupernovaPipeline.save",
    )
    m_reg.add_argument("--note", default=None, help="free-form audit note")
    m_reg.add_argument(
        "--promote", action="store_true",
        help="immediately promote the new version to production",
    )
    m_pro = modsub.add_parser("promote", help="make a version production")
    _registry_arg(m_pro)
    m_pro.add_argument("version", help="version to promote, e.g. v2")
    m_pro.add_argument(
        "--gate", default=None, metavar="DATASET",
        help="first score this dataset on production and on the version; "
        "refuse (exit 2) when the mean |Δp| exceeds the divergence budget",
    )
    m_pro.add_argument(
        "--force", action="store_true",
        help="promote even a quarantined (rolled_back) version",
    )
    m_rb = modsub.add_parser(
        "rollback", help="quarantine production, reinstate last-known-good"
    )
    _registry_arg(m_rb)
    m_rb.add_argument(
        "--reason", default="manual rollback", help="recorded in the audit log"
    )
    m_gc = modsub.add_parser(
        "gc", help="delete old retired/rolled-back version directories"
    )
    _registry_arg(m_gc)
    m_gc.add_argument(
        "--keep", type=int, default=2, metavar="N",
        help="newest retired/rolled-back versions to keep on disk",
    )
    for p in (m_list, m_reg, m_pro, m_rb, m_gc):
        _add_telemetry_arg(p)

    met = sub.add_parser(
        "metrics", help="summarize a telemetry directory (events + metrics)"
    )
    met.add_argument(
        "directory", help="telemetry directory written via --telemetry"
    )
    met.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="also render the last N events human-readably",
    )
    met.add_argument(
        "--prometheus", action="store_true",
        help="emit the metrics snapshot in Prometheus text exposition "
        "format instead of the human report",
    )
    met.add_argument(
        "--validate", action="store_true",
        help="check every event line against the schema first "
        "(exit 2 on any violation)",
    )

    tr = sub.add_parser(
        "trace", help="analyze request traces recorded by serve --trace"
    )
    tr.add_argument(
        "directory", help="telemetry directory written via --telemetry --trace"
    )
    tr.add_argument(
        "--validate", action="store_true",
        help="structurally check every span record first "
        "(exit 2 on any violation)",
    )
    tr.add_argument(
        "--request", default=None, metavar="ID",
        help="render only the trace of this request id",
    )
    tr.add_argument(
        "--waterfalls", type=int, default=3, metavar="N",
        help="render the N slowest request waterfalls (default 3)",
    )
    return parser


def _resume_path(args: argparse.Namespace) -> str | None:
    if not args.resume:
        return None
    if args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint")
    return args.checkpoint


def _cmd_build(args: argparse.Namespace) -> int:
    from .survey.imaging import ImagingConfig

    extras: dict[str, object] = {}
    if args.stamp_size is not None:
        extras["imaging"] = ImagingConfig(stamp_size=args.stamp_size)
    if args.catalog_size is not None:
        extras["catalog_size"] = args.catalog_size
    config = BuildConfig(
        n_ia=args.n_ia,
        n_non_ia=args.n_non_ia,
        seed=args.seed,
        render_images=not args.no_images,
        workers=args.workers,
        **extras,
    )
    if args.resume and args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint")
    start = time.time()
    builder = DatasetBuilder(config)
    dataset = builder.build(
        verbose=True,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
        resume=args.resume,
    )
    save_dataset(dataset, args.out)
    report = builder.report
    if args.report is not None and report is not None:
        with open(args.report, "w") as handle:
            handle.write(report.to_json())
    if report is not None and report.n_quarantined:
        _note(
            f"{report.summary()} (see --report for quarantined samples)",
            event="build.report", level="warning",
            n_quarantined=report.n_quarantined,
        )
    _note(
        f"{dataset.summary()} written to {args.out} in {time.time() - start:.1f}s",
        event="build.saved", out=args.out,
        elapsed_s=round(time.time() - start, 3),
    )
    return 0


def _cmd_train_cnn(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if dataset.stamp_size < args.input_size:
        print(
            f"error: dataset stamps are {dataset.stamp_size}px, smaller than "
            f"--input-size {args.input_size}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    splits = train_val_test_split(dataset, seed=args.seed)
    x_train, y_train, m_train = splits.train.flux_pairs(min_flux=2.0)
    x_val, y_val, m_val = splits.val.flux_pairs(min_flux=2.0)
    cnn = BandwiseCNN(input_size=args.input_size, rng=np.random.default_rng(args.seed))
    history = fit_regressor(
        cnn,
        x_train[m_train],
        y_train[m_train],
        TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.seed,
            early_stopping_patience=5,
            verbose=True,
        ),
        x_val[m_val],
        y_val[m_val],
        augment_fn=make_pair_augmenter(args.input_size),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=_resume_path(args),
    )
    save_module(cnn, args.out)
    _note(
        f"best val loss {history.best_val_loss:.4f}; weights written to {args.out}",
        event="train.saved", out=args.out,
        best_val_loss=history.best_val_loss,
    )
    return 0


def _cmd_train_classifier(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    splits = train_val_test_split(dataset, seed=args.seed)
    x_train, y_train = dataset_windowed_features(splits.train, args.epochs_used)
    x_val, y_val = dataset_windowed_features(splits.val, args.epochs_used)
    clf = LightCurveClassifier(
        input_dim=x_train.shape[1], units=args.units, rng=np.random.default_rng(args.seed)
    )
    history = fit_classifier(
        clf,
        x_train,
        y_train,
        TrainConfig(
            epochs=args.epochs, batch_size=128, seed=args.seed,
            early_stopping_patience=8, verbose=True,
        ),
        x_val,
        y_val,
        metric=auc_score,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=_resume_path(args),
    )
    save_module(clf, args.out)
    best = max(history.val_metric) if history.val_metric else float("nan")
    _note(
        f"best val AUC {best:.3f}; weights written to {args.out}",
        event="train.saved", out=args.out, best_val_auc=best,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    splits = train_val_test_split(dataset, seed=0)
    x_test, y_test = dataset_windowed_features(splits.test, args.epochs_used)
    clf = LightCurveClassifier(input_dim=x_test.shape[1], units=args.units)
    load_module(clf, args.classifier)
    scores = clf.predict_proba(x_test)
    curve = roc_curve(y_test, scores)
    print(f"test AUC: {curve.auc:.3f}")
    for fpr in (0.05, 0.1, 0.2):
        print(f"  TPR at FPR={fpr:.2f}: {curve.tpr_at_fpr(fpr):.3f}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .serve import InferenceEngine, PoolConfig, ScoringPool

    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.batch_size < 1:
        raise ValueError("--batch-size must be >= 1")
    dataset = load_dataset(args.dataset)
    n_degraded = 0
    confidences = []
    with contextlib.ExitStack() as stack:
        if args.workers == 1:
            scorer = InferenceEngine.from_directory(args.model)
        else:
            scorer = stack.enter_context(
                ScoringPool(
                    model_source=args.model,
                    config=PoolConfig(workers=args.workers),
                )
            )
        # Opened only once the scorer is up: a model that fails to load
        # must not truncate an earlier results file.
        sink = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        for result in scorer.stream(
            dataset, batch_size=args.batch_size, strict=args.strict
        ):
            n_degraded += result.degraded
            confidences.append(result.confidence)
            print(result.to_json(), file=sink, flush=args.out is None)
    if confidences:
        summary = (
            f"served {len(confidences)} sample(s), {n_degraded} degraded, "
            f"mean confidence {float(np.mean(confidences)):.3f}"
        )
    else:
        summary = "served 0 samples"
    # The serving summary always lands on stderr (tests and operators
    # rely on it); with telemetry on it is additionally recorded as the
    # terminal serve event.
    print(summary, file=sys.stderr)
    session = obs.active()
    if session is not None:
        session.emit(
            "serve.summary",
            message=summary,
            n_served=len(confidences),
            n_degraded=n_degraded,
            mean_confidence=float(np.mean(confidences)) if confidences else None,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .registry import GuardConfig, ModelRegistry
    from .serve import DaemonConfig, InferenceEngine, ServingDaemon

    if (args.model is None) == (args.registry is None):
        raise ValueError("pass exactly one of --model or --registry")
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        batch_max_size=args.batch_max_size,
        batch_deadline_ms=args.batch_deadline_ms,
        queue_depth=args.queue_depth,
        request_deadline_ms=args.request_deadline_ms,
        wedge_timeout_s=args.wedge_timeout_s,
        strict=args.strict,
        reload_poll_s=args.reload_poll_s,
        scoring_workers=args.scoring_workers,
    )
    if args.registry is not None:
        daemon = ServingDaemon(
            None,
            config,
            registry=ModelRegistry(args.registry),
            guard=GuardConfig(sustained_checks=args.sustained_drift_checks),
        )
        model_source = f"registry {args.registry} ({daemon._engine_version})"
    else:
        engine = InferenceEngine.from_directory(args.model)
        daemon = ServingDaemon(engine, config)
        model_source = args.model
    daemon.start()
    # Handlers must be live before the listening line is printed: a
    # supervisor may SIGTERM the moment it has parsed the port, and the
    # default disposition would kill the process instead of draining.
    daemon.install_signal_handlers()
    # The listening line always lands on stderr (machine-parsable, port 0
    # included) so supervisors and the drain test can find the bound port;
    # with telemetry on it is additionally a serve.listening event.
    print(f"serving on {args.host}:{daemon.port}", file=sys.stderr, flush=True)
    _note(
        f"model {model_source} warm; SIGTERM drains gracefully",
        event="serve.ready", model=model_source, port=daemon.port,
    )
    code = daemon.wait()
    if code == 4:
        print(
            "error: scoring restart budget exhausted; drained",
            file=sys.stderr,
        )
    return code


def _cmd_models(args: argparse.Namespace) -> int:
    """Registry management: list / register / promote / rollback / gc.

    Machine-readable results (the new version name, the JSON state) go
    to stdout; human progress notes go through :func:`_note` (stderr, or
    structured events with ``--telemetry``).
    """
    import json as _json

    from .registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    command = args.models_command
    if command == "list":
        if args.json:
            print(_json.dumps(registry.state(), indent=2))
            return 0
        records = registry.records()
        if not records:
            print("registry is empty", file=sys.stderr)
            return 0
        state = registry.state()
        for version, record in records:
            marker = "*" if version == state.get("production") else " "
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(record.get("created_at", 0))
            )
            note = record.get("note") or ""
            removed = " (gc'd)" if record.get("removed") else ""
            reason = record.get("reason")
            detail = f"  [{reason}]" if reason else (f"  {note}" if note else "")
            print(f"{marker} {version:>4}  {record['status']:<12} {stamp}{removed}{detail}")
        return 0
    if command == "register":
        version = registry.register(args.model, note=args.note, by="cli")
        _note(
            f"registered {args.model} as {version}",
            event="models.registered", version=version, model=args.model,
        )
        if args.promote:
            registry.promote(version, by="cli")
            _note(f"promoted {version} to production",
                  event="models.promoted", version=version)
        print(version)
        return 0
    if command == "promote":
        verdict = None
        if args.gate is not None:
            verdict = _gate(registry, args.version, args.gate)
            _note(
                f"gate passed: mean |Δp| {verdict['mean_abs_dp']:.4f} <= "
                f"{verdict['budget']} over {verdict['n']} samples against "
                f"{verdict['against']}",
                event="models.gated", version=args.version, **verdict,
            )
        demoted, promoted = registry.promote(
            args.version, force=args.force, by="cli", gate=verdict
        )
        suffix = f" (demoted {demoted})" if demoted else ""
        _note(f"promoted {promoted} to production{suffix}",
              event="models.promoted", version=promoted, demoted=demoted)
        return 0
    if command == "rollback":
        quarantined, restored = registry.rollback(reason=args.reason, by="cli")
        _note(
            f"rolled back {quarantined} -> {restored} ({args.reason})",
            event="models.rolled_back", version=quarantined, restored=restored,
            reason=args.reason,
        )
        return 0
    if command == "gc":
        removed = registry.gc(keep=args.keep, by="cli")
        _note(
            f"removed {len(removed)} version dir(s): {', '.join(removed) or 'none'}",
            event="models.gc", removed=removed, keep=args.keep,
        )
        return 0
    raise ValueError(f"unknown models command {command!r}")


#: Samples per gate scoring call; a score does not depend on its batch.
_GATE_BATCH = 64


def _gate(registry, version: str, dataset_path: str) -> dict:
    """Measure ``version`` against production on a fixed dataset.

    Both versions are verified (a corrupt one raises
    :class:`CorruptArtifactError`, exit 3) and score the whole dataset
    unaudited.  Returns the passed verdict of
    :func:`~repro.registry.gate_verdict` plus ``against`` (the
    production version) and ``dataset_sha256``; any refusal raises
    :class:`RegistryError` (exit 2) before the registry is written.
    """
    production = registry.production()
    if production is None:
        raise RegistryError(
            f"no production version to gate {version} against; "
            "promote one without --gate first"
        )
    registry.verify(production)
    registry.verify(version)
    dataset = load_dataset(dataset_path)
    if len(dataset) < GATE_MIN_SAMPLES:
        raise RegistryError(
            f"gate dataset {dataset_path} holds {len(dataset)} sample(s); "
            f"the gate needs at least {GATE_MIN_SAMPLES}"
        )
    verdict = gate_verdict(
        _gate_probabilities(registry, production, dataset),
        _gate_probabilities(registry, version, dataset),
    )
    if not verdict["passed"]:
        raise RegistryError(
            f"gate refused {version}: mean |Δp| {verdict['mean_abs_dp']:.4f} "
            f"exceeds budget {verdict['budget']} over {verdict['n']} samples "
            f"against production {production}"
        )
    verdict.update(against=production, dataset_sha256=file_sha256(dataset_path))
    return verdict


def _gate_probabilities(registry, version: str, dataset) -> np.ndarray:
    """``version``'s probability for every sample of ``dataset``, scored
    in fixed chunks through :meth:`InferenceEngine.score_arrays`: no
    ``serve.request`` events, ``serve.*`` metrics or drift feed.  The
    gate serves nothing, so its engines carry no drift baseline (and do
    not warn that they lack one)."""
    from .serve import InferenceEngine

    engine = InferenceEngine.from_directory_unmonitored(registry.path(version))
    probabilities: list[float] = []
    try:
        for start in range(0, len(dataset), _GATE_BATCH):
            results = engine.score_arrays(
                dataset.pairs[start : start + _GATE_BATCH],
                dataset.visit_mjd[start : start + _GATE_BATCH],
                strict=False,
                start_index=start,
            )
            probabilities.extend(result.probability for result in results)
    except Exception as exc:  # noqa: BLE001 - a version that cannot score is refused
        raise RegistryError(
            f"{version} failed scoring the gate dataset: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return np.asarray(probabilities)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import SCHEMA_VERSION, validate_file
    from .obs.log import EVENTS_FILE
    from .obs.report import (
        format_event,
        prometheus_report,
        summarize_directory,
        tail_events,
    )

    if args.validate:
        events_path = os.path.join(args.directory, EVENTS_FILE)
        if not os.path.exists(events_path):
            print(f"error: no {EVENTS_FILE} in {args.directory}", file=sys.stderr)
            return EXIT_BAD_INPUT
        n_events, errors = validate_file(events_path)
        if errors:
            for err in errors[:20]:
                print(f"error: {err}", file=sys.stderr)
            if len(errors) > 20:
                print(f"error: ... and {len(errors) - 20} more", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(f"validated {n_events} event(s) against schema v{SCHEMA_VERSION}")
    if args.prometheus:
        sys.stdout.write(prometheus_report(args.directory))
        return 0
    sys.stdout.write(summarize_directory(args.directory))
    if args.tail > 0:
        records = tail_events(args.directory, args.tail)
        if records:
            print(f"\nlast {len(records)} event(s):")
            for record in records:
                print(f"  {format_event(record)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render the trace analysis over a telemetry directory.

    Three views, in order: the per-stage latency table (p50/p99 over
    every span of each name), waterfalls of the slowest requests, and
    the aggregated critical-path breakdown (the dominant stage chain
    per request).  ``--validate`` structurally checks every span record
    first and exits 2 on any violation.
    """
    from .obs import trace as trace_mod

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return EXIT_BAD_INPUT
    spans = trace_mod.load_spans(args.directory)
    if args.validate:
        errors = trace_mod.validate_spans(spans)
        if errors:
            for err in errors[:20]:
                print(f"error: {err}", file=sys.stderr)
            if len(errors) > 20:
                print(f"error: ... and {len(errors) - 20} more", file=sys.stderr)
            return EXIT_BAD_INPUT
        print(f"validated {len(spans)} span record(s)")
    if not spans:
        print(
            "no span records found (run `repro serve --telemetry DIR --trace`)",
            file=sys.stderr,
        )
        return 0
    trees = trace_mod.build_trees(spans)
    if args.request is not None:
        trees = [t for t in trees if t.get("request_id") == args.request]
        if not trees:
            print(f"error: no trace for request {args.request!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
    print(f"{len(spans)} span(s) across {len(trees)} trace(s)")
    print()
    print("per-stage latency:")
    print(
        f"  {'stage':<26} {'count':>6} {'p50 ms':>9} {'p99 ms':>9} {'total s':>9}"
    )
    for row in trace_mod.stage_table(spans):
        print(
            f"  {row['stage']:<26} {row['count']:>6} {row['p50_ms']:>9.3f} "
            f"{row['p99_ms']:>9.3f} {row['total_s']:>9.3f}"
        )
    print()
    for tree in trees[: max(0, args.waterfalls)]:
        for line in trace_mod.render_waterfall(tree):
            print(line)
        print()
    path_rows = trace_mod.critical_paths(trees)
    if path_rows:
        print("critical paths:")
        for row in path_rows:
            print(
                f"  {row['count']:>5}x  {row['path']}  "
                f"(leaf {row['mean_leaf_ms']:.1f}ms, "
                f"{row['mean_fraction'] * 100.0:.0f}% of request)"
            )
    return 0


_COMMANDS = {
    "build-dataset": _cmd_build,
    "train-flux-cnn": _cmd_train_cnn,
    "train-classifier": _cmd_train_classifier,
    "evaluate": _cmd_evaluate,
    "classify": _cmd_classify,
    "serve": _cmd_serve,
    "models": _cmd_models,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Structured runtime failures are reported as one-line ``error:``
    messages on stderr instead of tracebacks: bad or missing inputs exit
    with ``2``, corrupt artifacts with ``3``, diverged training with
    ``4``.  With ``--telemetry DIR`` the same failures additionally
    leave a terminal ``cli.error`` event (carrying the exit code and,
    for strict-mode serving refusals, the failing sample's index and
    request id) before the session closes.
    """
    args = build_parser().parse_args(argv)
    telemetry_dir = getattr(args, "telemetry", None)
    trace = getattr(args, "trace", False)
    if trace and not telemetry_dir:
        print("error: --trace requires --telemetry DIR", file=sys.stderr)
        return EXIT_BAD_INPUT
    if telemetry_dir:
        try:
            obs.start(telemetry_dir, command=args.command, trace=trace)
        except FileExistsError as exc:
            # One directory holds one session: refuse rather than append
            # to (or truncate) an earlier run's audit trail.
            print(
                f"error: {exc.filename} already exists; pass a fresh "
                "--telemetry DIR (one directory holds one session)",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
    code: int | None = None  # None = a non-CLI exception escaped
    try:
        try:
            code = _COMMANDS[args.command](args)
        except CorruptArtifactError as exc:
            code = _fail(exc, EXIT_CORRUPT_ARTIFACT)
        except TrainingDiverged as exc:
            code = _fail(exc, EXIT_DIVERGED, prefix="error: training diverged: ")
        except BuildAborted as exc:
            code = _fail(exc, EXIT_BAD_INPUT, prefix="error: dataset build aborted: ")
        except RegistryError as exc:
            # Invalid registry operations (unknown version, quarantined
            # promote without --force, nothing to roll back to) are the
            # caller's fault, not corruption.
            code = _fail(exc, EXIT_BAD_INPUT)
        except OSError as exc:
            # FileNotFoundError / PermissionError / IsADirectoryError on inputs
            code = _fail(exc, EXIT_BAD_INPUT)
        except (ValueError, KeyError) as exc:
            code = _fail(exc, EXIT_BAD_INPUT)
        return code
    finally:
        if telemetry_dir and obs.active() is not None:
            obs.stop(
                status="ok" if code == 0 else "error",
                exit_code=-1 if code is None else code,
            )


if __name__ == "__main__":
    sys.exit(main())
