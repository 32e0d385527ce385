"""Hot-path throughput benchmark — the repo's tracked perf trajectory.

The ROADMAP's north star is a production-scale system that "runs as fast
as the hardware allows"; this benchmark pins that claim to numbers.  It
measures the three serving/training hot paths:

* ``train_steps_per_s`` — full forward + backward + Adam step of the
  band-wise flux CNN (batch 64);
* ``cnn_predict_samples_per_s`` — inference over raw ``(N, 2, S, S)``
  stamp pairs through :meth:`BandwiseCNN.predict`;
* ``classify_arrays_samples_per_s`` — end-to-end serving throughput of
  :meth:`InferenceEngine.classify_arrays` (validate/repair + fused CNN +
  features + classifier) on clean traffic;
* ``classify_arrays_float16_samples_per_s`` — the same path with
  half-precision activation storage (float32 GEMM accumulation);
* ``classify_arrays_mp{W}_samples_per_s`` — the same clean-traffic
  workload scattered over a ``repro.serve.pool.ScoringPool`` of W
  BLAS-pinned worker processes (W in ``MP_WORKER_COUNTS``), the
  ``repro classify --workers W`` / ``repro serve --scoring-workers`` path.

``--check`` additionally runs the deterministic accuracy gates: the
fused float32 path must match chunked ``predict`` bit for bit, the
float16 path's AUC on a labelled synthetic batch must stay within
``AUC_GATE`` of float32, and a two-worker scoring pool must reproduce
the single-process scores at wire precision.  On machines with at
least ``MP_GATE_MIN_CORES`` cores it also enforces the
``MP_SPEEDUP_GATE``x multi-process speedup at four workers; on smaller
machines the speedup gate is reported but skipped (process scatter
cannot beat one core), while the parity gate always runs.

Results are written to ``BENCH_throughput.json`` at the repo root (one
section per mode, so the committed file carries both the ``full``
acceptance numbers and the tiny ``smoke`` CI point).  The per-stage
breakdown of the classify section (``timers``, read from one telemetry
session's ``trace.<name>_s`` span histograms) rides along for drill-down.

Run the acceptance-scale measurement::

    PYTHONPATH=src python benchmarks/bench_throughput.py

CI smoke mode with the regression guard (fails when any metric drops
more than ``--tolerance`` below the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_throughput.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro import nn, obs
from repro.core import SupernovaPipeline
from repro.core.flux_cnn import BandwiseCNN
from repro.nn import blas_backend_info, blas_env_settings, cpu_count
from repro.serve import FluxPrior, InferenceEngine
from repro.serve.pool import PoolConfig, ScoringPool

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_throughput.json")

#: Metrics tracked by the regression guard (all are rates: higher = better).
TRACKED_METRICS = (
    "train_steps_per_s",
    "cnn_predict_samples_per_s",
    "classify_arrays_samples_per_s",
    "classify_arrays_float16_samples_per_s",
    "classify_arrays_mp4_samples_per_s",
)

#: The float16 fast path may not shift AUC by more than this vs float32.
AUC_GATE = 2e-3

#: Scoring-pool sizes measured for the multi-process scaling curve.
MP_WORKER_COUNTS = (1, 2, 4)

#: Required mp4 speedup over single-process classify, and the core count
#: below which the speedup gate is informational only (a 1-2 core box
#: cannot express 4-way process parallelism; parity still gates there).
MP_SPEEDUP_GATE = 3.0
MP_GATE_MIN_CORES = 4


def env_block(scoring_workers: tuple[int, ...] = MP_WORKER_COUNTS) -> dict:
    """Hardware/runtime provenance committed next to every measurement."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": cpu_count(),
        "blas": blas_backend_info(),
        "blas_env": blas_env_settings(),
        "scoring_workers": list(scoring_workers),
    }


def _synth_pairs(
    n: int, stamp: int, rng: np.random.Generator, visits: int | None = None
) -> np.ndarray:
    """Clean synthetic (reference, observation) stamps with a point source."""
    shape = (n, 2, stamp, stamp) if visits is None else (n, visits, 2, stamp, stamp)
    pairs = rng.normal(0.0, 30.0, size=shape).astype(np.float32)
    # A faint PSF-ish blob on the observation channel keeps the difference
    # image non-trivial for the sigma-clip stage.
    yy, xx = np.mgrid[0:stamp, 0:stamp]
    blob = 200.0 * np.exp(
        -((yy - stamp // 2) ** 2 + (xx - stamp // 2) ** 2) / (2 * 2.5**2)
    ).astype(np.float32)
    pairs[..., 1, :, :] += blob
    return pairs


def _timeit(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_train_steps(
    input_size: int, steps: int, batch: int, repeats: int, seed: int = 0
) -> float:
    """Forward + backward + Adam steps per second on the flux CNN."""
    rng = np.random.default_rng(seed)
    cnn = BandwiseCNN(input_size=input_size, rng=rng)
    cnn.train()
    pairs = _synth_pairs(batch, input_size, rng)
    mags = rng.uniform(20.0, 25.0, size=batch).astype(np.float32)
    optimizer = nn.Adam(cnn.parameters(), lr=1e-4)
    loss_fn = nn.MSELoss()
    x = nn.Tensor(pairs)
    y = nn.Tensor(mags)

    def run() -> None:
        for _ in range(steps):
            optimizer.zero_grad()
            loss = loss_fn(cnn.forward(x), y)
            loss.backward()
            optimizer.step()

    elapsed = _timeit(run, repeats)
    return steps / elapsed


def bench_cnn_predict(
    input_size: int, n: int, repeats: int, seed: int = 1
) -> float:
    """Raw CNN inference throughput in stamp pairs per second."""
    rng = np.random.default_rng(seed)
    cnn = BandwiseCNN(input_size=input_size, rng=rng)
    cnn.eval()
    pairs = _synth_pairs(n, input_size, rng)
    elapsed = _timeit(lambda: cnn.predict(pairs), repeats)
    return n / elapsed


def _classify_inputs(
    input_size: int, stamp: int, n: int, seed: int, precision: str = "float32"
):
    """Engine + synthetic traffic shared by the serving benchmarks."""
    rng = np.random.default_rng(seed)
    pipeline = SupernovaPipeline(input_size=input_size, epochs_used=1, seed=seed)
    pipeline.cnn.eval()
    pipeline.classifier.eval()
    engine = InferenceEngine(pipeline, prior=FluxPrior.neutral(), precision=precision)
    visits = engine._n_used_visits
    pairs = _synth_pairs(n, stamp, rng, visits=visits)
    mjd = (57000.0 + np.arange(n * visits).reshape(n, visits) * 0.01).astype(
        np.float64
    )
    return engine, pairs, mjd


def _classify_workload(
    input_size: int,
    stamp: int,
    n: int,
    batch: int,
    seed: int,
    precision: str = "float32",
):
    """Build the end-to-end serving workload; returns its ``run()`` closure."""
    engine, pairs, mjd = _classify_inputs(
        input_size, stamp, n, seed, precision=precision
    )

    def run() -> list:
        results = []
        for start in range(0, n, batch):
            results.extend(
                engine.classify_arrays(
                    pairs[start : start + batch], mjd[start : start + batch]
                )
            )
        return results

    return run


def bench_classify(
    input_size: int,
    stamp: int,
    n: int,
    batch: int,
    repeats: int,
    seed: int = 2,
    precision: str = "float32",
) -> tuple[float, dict]:
    """End-to-end serving throughput in samples per second.

    Also returns the per-stage timers of one pass under a telemetry
    session: ``{stage: {"calls", "total_s", "mean_s"}}`` from its
    ``trace.<stage>_s`` span histograms.
    """
    run = _classify_workload(input_size, stamp, n, batch, seed, precision=precision)
    elapsed = _timeit(run, repeats)

    with tempfile.TemporaryDirectory() as tmp:
        obs.start(tmp, command="bench-timers")
        try:
            run()
        finally:
            histograms = obs.stop()["histograms"]
    timers = {
        name[len("trace."):-len("_s")]: {
            "calls": hist["count"],
            "total_s": hist["sum"],
            "mean_s": hist["sum"] / hist["count"],
        }
        for name, hist in histograms.items()
        if name.startswith("trace.") and hist["count"]
    }
    return n / elapsed, timers


def bench_classify_mp(
    input_size: int,
    stamp: int,
    n: int,
    batch: int,
    repeats: int,
    workers: int,
    seed: int = 2,
) -> tuple[float, dict]:
    """Multi-process serving throughput through a :class:`ScoringPool`.

    Each dispatch hands the pool ``batch x workers`` samples so every
    worker's shard matches the single-process benchmark's GEMM batch;
    pool startup (spawn + per-worker numpy import) is excluded from the
    timed region, mirroring a warm ``repro serve`` daemon.  Returns the
    rate plus the pool's own stats for the drill-down section.
    """
    engine, pairs, mjd = _classify_inputs(input_size, stamp, n, seed)
    dispatch = batch * workers
    with ScoringPool(engine=engine, config=PoolConfig(workers=workers)) as pool:

        def run() -> list:
            results = []
            for start in range(0, n, dispatch):
                results.extend(
                    pool.classify_arrays(
                        pairs[start : start + dispatch],
                        mjd[start : start + dispatch],
                    )
                )
            return results

        elapsed = _timeit(run, repeats)
        stats = pool.stats()
    keep = (
        "workers", "blas_threads", "slots", "slot_bytes",
        "batches", "samples", "shm_overflow",
        "scatter_s_total", "gather_s_total",
    )
    return n / elapsed, {key: stats[key] for key in keep}


def pool_parity_gate(
    input_size: int, stamp: int, n: int, seed: int = 11, workers: int = 2
) -> list[str]:
    """Deterministic gate: pool scores == single-process at wire precision.

    Probability/confidence are compared at the daemon's round-6 wire
    precision (raw float32 GEMM output varies at the last ulp with
    batch shape — see ``TestCleanTrafficParity``); degraded flags and
    usable bands must match exactly.  Returns failure strings.
    """
    engine, pairs, mjd = _classify_inputs(input_size, stamp, n, seed)
    solo = engine.classify_arrays(pairs, mjd)
    with ScoringPool(engine=engine, config=PoolConfig(workers=workers)) as pool:
        pooled = pool.classify_arrays(pairs, mjd)
    bad = [
        i
        for i, (a, b) in enumerate(zip(solo, pooled))
        if round(a.probability, 6) != round(b.probability, 6)
        or round(a.confidence, 6) != round(b.confidence, 6)
        or a.degraded != b.degraded
        or a.usable_bands != b.usable_bands
    ]
    status = "OK" if not bad else "FAIL"
    print(f"pool parity: {workers} workers vs single-process, {n} samples {status}")
    if bad:
        return [
            f"scoring pool ({workers} workers) diverged from single-process "
            f"scores at wire precision for samples {bad[:5]}"
        ]
    return []


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC from average ranks (tie-aware, no sklearn)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.argsort(scores, kind="stable")
    _, inverse, counts = np.unique(scores[order], return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = average_rank[inverse]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _labeled_pairs(n: int, stamp: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stamp pairs with a bright blob on half the samples (the labels)."""
    pairs = rng.normal(0.0, 30.0, size=(n, 2, stamp, stamp)).astype(np.float32)
    labels = (np.arange(n) % 2).astype(bool)
    yy, xx = np.mgrid[0:stamp, 0:stamp]
    psf = np.exp(
        -((yy - stamp // 2) ** 2 + (xx - stamp // 2) ** 2) / (2 * 2.5**2)
    ).astype(np.float32)
    amplitude = np.where(
        labels,
        rng.uniform(200.0, 600.0, size=n),
        rng.uniform(0.0, 60.0, size=n),
    ).astype(np.float32)
    pairs[:, 1] += amplitude[:, None, None] * psf
    return pairs, labels


def accuracy_gates(input_size: int, n: int, seed: int = 7) -> list[str]:
    """Deterministic correctness gates on the fused/reduced-precision paths.

    1. ``fused_forward`` at float32 must be bit-identical to the chunked
       ``predict`` reference on a labelled synthetic batch;
    2. the float16 path's AUC over that batch must sit within
       :data:`AUC_GATE` of the float32 AUC (magnitudes are the score —
       brighter transient, smaller magnitude).

    Returns failure strings (empty = all gates pass).
    """
    rng = np.random.default_rng(seed)
    cnn = BandwiseCNN(input_size=input_size, rng=rng)
    cnn.eval()
    pairs, labels = _labeled_pairs(n, input_size, rng)

    failures: list[str] = []
    fused = cnn.fused_forward(pairs)
    chunked = cnn.predict(pairs)
    if not np.array_equal(fused, chunked):
        delta = float(np.max(np.abs(fused - chunked)))
        failures.append(
            f"fused float32 path diverged from chunked predict (max |delta| {delta:g})"
        )

    half = cnn.fused_forward(pairs, precision="float16")
    auc32 = _rank_auc(-fused, labels)
    auc16 = _rank_auc(-half, labels)
    drift = abs(auc16 - auc32)
    status = "OK" if drift <= AUC_GATE else "FAIL"
    print(
        f"accuracy: fused parity {'OK' if not failures else 'FAIL'}, "
        f"AUC f32 {auc32:.4f} vs f16 {auc16:.4f} "
        f"(|drift| {drift:.2e}, gate {AUC_GATE:.0e}) {status}"
    )
    if not np.isfinite(drift) or drift > AUC_GATE:
        failures.append(
            f"float16 AUC drifted {drift:.2e} from float32 (gate {AUC_GATE:.0e})"
        )
    return failures


def bench_telemetry(
    input_size: int, stamp: int, n: int, batch: int, repeats: int, seed: int = 3
) -> tuple[dict, list[str]]:
    """Telemetry overhead smoke on the classify hot path.

    The interesting regression class is the *disabled* path silently
    growing a cost — a session leaking active after ``stop()``, or the
    ``obs.active()`` check turning into real work.  Wall-clock A/B
    timing of that path is hopeless on shared runners (CPU frequency
    drift alone exceeds any honest gate), so the gate is deterministic:

    1. no session is active before or leaked after the enabled rounds;
    2. classify outputs are bit-identical with telemetry off and on;
    3. the disabled hook itself — ``obs.active()`` plus the branch,
       the *entire* cost classify pays when telemetry is off — is
       microbenchmarked and its per-batch cost must stay under 2% of
       the measured per-batch classify time;
    4. enabled rounds emit at least one event per served sample;
    5. the disabled *tracing* hook (``repro.obs.trace.span`` returning
       ``NULL_SPAN``) is microbenchmarked the same way — six
       instrumented spans per batch (three engine stages, three
       ``nn.conv2d`` layers) must also stay under the
       2% gate — and fully-traced rounds (``trace="always"`` with a
       root span over each run) report the enabled-with-sampling
       overhead informationally.

    Off/on rounds still interleave and the enabled overhead is reported
    informationally (median of paired per-round ratios, robust to
    drift); absolute throughput stays gated by ``--check``.
    """
    import statistics

    run = _classify_workload(input_size, stamp, n, batch, seed)
    rounds = max(2 * repeats, 4)
    failures: list[str] = []

    if obs.active() is not None:
        failures.append("a telemetry session was already active before the bench")

    for _ in range(2):  # warm caches, allocator and BLAS threads
        run()

    times_off: list[float] = []
    times_on: list[float] = []
    n_events = 0
    results_off = results_on = None
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(rounds):
            start = time.perf_counter()
            results_off = run()
            times_off.append(time.perf_counter() - start)

            round_dir = os.path.join(tmp, f"round{index}")
            obs.start(round_dir, command="bench-telemetry")
            try:
                start = time.perf_counter()
                results_on = run()
                times_on.append(time.perf_counter() - start)
            finally:
                obs.stop()
            n_events += sum(
                1 for _ in obs.read_events(os.path.join(round_dir, obs.EVENTS_FILE))
            )

    if obs.active() is not None:
        failures.append("telemetry session leaked: obs.active() is not None after stop()")

    mismatched = [
        i
        for i, (a, b) in enumerate(zip(results_off, results_on))
        if a.probability != b.probability or a.degraded != b.degraded
    ]
    if mismatched:
        failures.append(
            f"telemetry changed classify outputs for samples {mismatched[:5]}"
        )

    # The whole disabled path is one ``obs.active()`` call per
    # classify_arrays() batch; time it directly.
    hook_iters = 200_000
    start = time.perf_counter()
    for _ in range(hook_iters):
        if obs.active() is not None:  # pragma: no cover - never taken here
            raise AssertionError
    hook_cost = (time.perf_counter() - start) / hook_iters
    batches_per_run = (n + batch - 1) // batch
    batch_time = min(times_off) / batches_per_run
    disabled_overhead = hook_cost / batch_time

    # The disabled tracing hook: span() reads one module reference and
    # returns NULL_SPAN; each scored batch pays it once per engine stage
    # (repair, cnn, features) and once per conv layer (nn.conv2d).
    spans_per_batch = 6
    from repro.obs import trace as trace_mod

    if trace_mod.tracer() is not None:
        failures.append("a tracer was already installed before the bench")
    start = time.perf_counter()
    for _ in range(hook_iters):
        with trace_mod.span("bench.hook"):
            pass
    trace_hook_cost = (time.perf_counter() - start) / hook_iters
    trace_disabled_overhead = spans_per_batch * trace_hook_cost / batch_time

    # Fully-traced rounds: telemetry + trace="always", with a root span
    # over each run so every engine stage records a span.  Reported
    # informationally — sampling policies (rate:F / slow:MS) only ever
    # cost less than this ceiling.
    times_traced: list[float] = []
    n_spans = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(max(repeats, 2)):
            round_dir = os.path.join(tmp, f"trace{index}")
            session = obs.start(round_dir, command="bench-trace", trace="always")
            try:
                root = session.tracer.start_trace(f"bench/round{index}")
                start = time.perf_counter()
                with root:
                    run()
                times_traced.append(time.perf_counter() - start)
            finally:
                obs.stop()
            n_spans += sum(
                1
                for event in obs.read_events(
                    os.path.join(round_dir, obs.EVENTS_FILE)
                )
                if event.get("event") == trace_mod.SPAN_EVENT
            )

    rate_off = n / min(times_off)
    rate_on = n / min(times_on)
    rate_traced = n / min(times_traced)
    enabled_overhead = statistics.median(
        t_on / t_off for t_on, t_off in zip(times_on, times_off)
    ) - 1.0
    traced_overhead = min(times_traced) / min(times_off) - 1.0

    print(f"telemetry off:      {rate_off:8.2f} samples/s")
    print(f"telemetry on:       {rate_on:8.2f} samples/s ({n_events} events)")
    print(f"traced (always):    {rate_traced:8.2f} samples/s ({n_spans} spans)")
    print(
        f"disabled hook cost  {hook_cost * 1e9:6.0f} ns/batch = "
        f"{disabled_overhead:.4%} of batch time (gate <2%), "
        f"enabled overhead {enabled_overhead:6.2%}"
    )
    print(
        f"disabled trace hook {trace_hook_cost * 1e9:6.0f} ns/span x{spans_per_batch} = "
        f"{trace_disabled_overhead:.4%} of batch time (gate <2%), "
        f"traced overhead {traced_overhead:6.2%}"
    )

    if disabled_overhead > 0.02:
        failures.append(
            f"disabled telemetry hook costs {disabled_overhead:.2%} of classify "
            "batch time (gate 2%)"
        )
    if trace_disabled_overhead > 0.02:
        failures.append(
            f"disabled tracing hooks cost {trace_disabled_overhead:.2%} of "
            "classify batch time (gate 2%)"
        )
    # Every enabled round serves n samples -> at least that many
    # serve.request events plus session bookkeeping.
    if n_events <= n * len(times_on):
        failures.append(
            f"telemetry-enabled rounds emitted only {n_events} events for "
            f"{n * len(times_on)} served samples"
        )
    # Each traced round must record the root plus the per-batch engine
    # stage spans.
    if n_spans < len(times_traced) * (1 + batches_per_run):
        failures.append(
            f"traced rounds recorded only {n_spans} spans for "
            f"{len(times_traced)} runs of {batches_per_run} batches"
        )
    section = {
        "disabled_samples_per_s": round(rate_off, 2),
        "enabled_samples_per_s": round(rate_on, 2),
        "traced_samples_per_s": round(rate_traced, 2),
        "disabled_hook_ns": round(hook_cost * 1e9, 1),
        "disabled_overhead": round(disabled_overhead, 6),
        "enabled_overhead": round(enabled_overhead, 4),
        "trace_hook_ns": round(trace_hook_cost * 1e9, 1),
        "trace_disabled_overhead": round(trace_disabled_overhead, 6),
        "traced_overhead": round(traced_overhead, 4),
        "n_events": n_events,
        "n_spans": n_spans,
    }
    return section, failures


def run_benchmark(smoke: bool) -> dict:
    """Measure all tracked metrics; returns the JSON-ready section."""
    if smoke:
        config = {
            "input_size": 36,
            "stamp": 40,
            "train_steps": 3,
            "train_batch": 16,
            "predict_n": 64,
            "classify_n": 32,
            "classify_batch": 16,
            "repeats": 2,
        }
    else:
        config = {
            "input_size": 60,
            "stamp": 60,
            "train_steps": 10,
            "train_batch": 64,
            "predict_n": 256,
            "classify_n": 192,
            "classify_batch": 64,
            "repeats": 3,
        }

    train_rate = bench_train_steps(
        config["input_size"],
        config["train_steps"],
        config["train_batch"],
        config["repeats"],
    )
    print(f"train:    {train_rate:8.2f} steps/s  (batch {config['train_batch']})")
    predict_rate = bench_cnn_predict(
        config["input_size"], config["predict_n"], config["repeats"]
    )
    print(f"predict:  {predict_rate:8.2f} pairs/s")
    classify_rate, timers = bench_classify(
        config["input_size"],
        config["stamp"],
        config["classify_n"],
        config["classify_batch"],
        config["repeats"],
    )
    print(f"classify: {classify_rate:8.2f} samples/s (batch {config['classify_batch']})")
    classify16_rate, _ = bench_classify(
        config["input_size"],
        config["stamp"],
        config["classify_n"],
        config["classify_batch"],
        config["repeats"],
        precision="float16",
    )
    print(
        f"classify (float16): {classify16_rate:8.2f} samples/s "
        f"(batch {config['classify_batch']})"
    )

    mp_metrics: dict = {}
    mp_scaling: dict = {}
    for workers in MP_WORKER_COUNTS:
        mp_rate, pool_stats = bench_classify_mp(
            config["input_size"],
            config["stamp"],
            config["classify_n"],
            config["classify_batch"],
            config["repeats"],
            workers,
        )
        speedup = mp_rate / classify_rate if classify_rate else float("nan")
        print(
            f"classify (mp, {workers} worker{'s' if workers > 1 else ''}): "
            f"{mp_rate:8.2f} samples/s ({speedup:.2f}x single-process)"
        )
        mp_metrics[f"classify_arrays_mp{workers}_samples_per_s"] = round(mp_rate, 2)
        mp_scaling[str(workers)] = {
            "samples_per_s": round(mp_rate, 2),
            "speedup_vs_single": round(speedup, 3),
            "pool": pool_stats,
        }

    return {
        "config": config,
        "env": env_block(MP_WORKER_COUNTS),
        "metrics": {
            "train_steps_per_s": round(train_rate, 2),
            "cnn_predict_samples_per_s": round(predict_rate, 2),
            "classify_arrays_samples_per_s": round(classify_rate, 2),
            "classify_arrays_float16_samples_per_s": round(classify16_rate, 2),
            **mp_metrics,
        },
        "mp_scaling": mp_scaling,
        "timers": timers,
    }


def check_regression(section: dict, baseline_section: dict, tolerance: float) -> list[str]:
    """Names of metrics that regressed more than ``tolerance`` vs baseline."""
    failures = []
    base_metrics = baseline_section.get("metrics", {})
    for name in TRACKED_METRICS:
        base = base_metrics.get(name)
        current = section["metrics"].get(name)
        if base is None or current is None:
            continue
        floor = base * (1.0 - tolerance)
        status = "OK" if current >= floor else "REGRESSION"
        print(
            f"  {name}: {current:.2f} vs baseline {base:.2f} "
            f"(floor {floor:.2f}) {status}"
        )
        if current < floor:
            failures.append(name)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on a throughput regression vs the committed baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30, metavar="FRAC",
        help="allowed fractional drop per metric before --check fails (default 0.30)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_BASELINE, metavar="PATH",
        help="benchmark JSON to read the baseline from and write results to",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="measure (and --check) without updating the JSON",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="also smoke the telemetry overhead gate: classify off/on/off, "
        "fail (exit 1) if the disabled path drifts more than 2%%",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    print(f"mode: {mode} (numpy {np.__version__})")
    section = run_benchmark(args.smoke)

    telemetry_failures: list[str] = []
    if args.telemetry:
        config = section["config"]
        telemetry_section, telemetry_failures = bench_telemetry(
            config["input_size"],
            config["stamp"],
            config["classify_n"],
            config["classify_batch"],
            config["repeats"],
        )
        section["telemetry"] = telemetry_section

    document: dict = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            document = json.load(handle)

    failures: list[str] = []
    if args.check:
        baseline_section = document.get(mode)
        if baseline_section is None:
            print(f"no committed '{mode}' baseline in {args.out}; nothing to check")
        else:
            print(f"regression check vs {args.out} (tolerance {args.tolerance:.0%}):")
            failures = check_regression(section, baseline_section, args.tolerance)
        # The accuracy gates are deterministic (no timing), so they run
        # on every --check: fused parity and the float16 AUC budget.
        # The batch is sized for AUC resolution, not for timing — with
        # fewer than ~128 samples a single rank flip already exceeds
        # the gate (1 / (n/2)^2 > AUC_GATE), so smoke mode must not
        # shrink it.
        failures += accuracy_gates(
            section["config"]["input_size"],
            n=max(section["config"]["classify_n"], 160),
        )
        failures += pool_parity_gate(
            section["config"]["input_size"],
            section["config"]["stamp"],
            n=section["config"]["classify_n"],
        )
        # The speedup gate only means something when the hardware can
        # express 4-way process parallelism; the committed env block
        # records the core count either way.
        cores = cpu_count()
        single = section["metrics"]["classify_arrays_samples_per_s"]
        mp4 = section["metrics"].get("classify_arrays_mp4_samples_per_s")
        if cores < MP_GATE_MIN_CORES:
            print(
                f"mp speedup gate skipped: {cores} core(s) < "
                f"{MP_GATE_MIN_CORES} (mp4 {mp4} vs single {single} samples/s)"
            )
        elif mp4 is not None and single:
            ratio = mp4 / single
            status = "OK" if ratio >= MP_SPEEDUP_GATE else "FAIL"
            print(
                f"mp speedup gate: mp4 {mp4:.2f} / single {single:.2f} = "
                f"{ratio:.2f}x (gate {MP_SPEEDUP_GATE:.1f}x) {status}"
            )
            if ratio < MP_SPEEDUP_GATE:
                failures.append(
                    f"mp4 throughput {mp4:.2f} samples/s is only {ratio:.2f}x "
                    f"single-process (gate {MP_SPEEDUP_GATE:.1f}x)"
                )

    if not args.no_write and not failures:
        document[mode] = section
        tmp = args.out + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, args.out)
        print(f"wrote {args.out} [{mode}]")

    if failures:
        print(f"FAIL: regression in {', '.join(failures)}", file=sys.stderr)
        return 1
    if telemetry_failures:
        for failure in telemetry_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
