"""The six workloads: seeded inputs, set-up, a timed run and output checks.

Each ``run_*`` function measures one workload in this process and
returns an :class:`Outcome`.  An untraced run reports the end-to-end
metrics; a traced run (``Context.trace``) wraps the layers' public names
(:mod:`bench.layers`) and reports per-layer metrics instead, alternating
traced and untraced rounds so the tracing overhead is measured too.
Outputs are checked against a reference scorer after the clock stops.
"""

from __future__ import annotations

import contextlib
import json
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import nn
from repro.core.flux_cnn import BandwiseCNN
from repro.serve import InferenceEngine
from repro.serve.pool import PoolConfig, ScoringPool

from . import inputs, layers
from .checks import MICROBATCH_TOL, from_payload, from_result, mismatched
from .loadgen import Record, closed_loop, open_loop, poisson_offsets
from .procfs import cpu_seconds, peak_rss_mb
from .serving import Connection, Daemon
from .tracing import SpanRecorder, conservation_errors, patched

clock = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed rounds of each kind in a run.
MIN_ROUNDS = 3
#: Samples per scoring-pool dispatch (two 64-sample shards).
POOL_DISPATCH = 128
POOL_WORKERS = 2
#: Offered rate of serve_steady, about 55% of the daemon's capacity.
SERVE_RATE = 12.0
#: Seed of serve_steady's arrival schedule: one Poisson sample for every
#: --seed, which picks the bodies.  With 120 arrivals a run, drawing the
#: schedule from --seed moved p90 latency by about 25% between seeds.
SCHEDULE_SEED = 0
#: Distinct request bodies, encoded before the clock starts.
SERVE_BODIES = 32
#: Requests answered later than this miss the limit (and do not count in samples_per_s).
LATENCY_LIMIT_MS = 250.0
#: Seconds of untimed closed-loop traffic before the measured window.
SERVE_WARMUP_S = 1.0
#: A serve run whose generator ran later than this (p95) is marked invalid.
MAX_SCHED_LAG_MS = 2.0
#: Seconds of in-process scoring a traced serve run spends on daemon.score_ms.
SCORE_PROBE_S = 2.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool

    def model(self) -> Path:
        """The seed's model, saved once per run under the work directory."""
        directory = self.work / "model"
        if not directory.exists():
            directory.mkdir(parents=True)
            inputs.save_model(directory, self.seed)
        return directory


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    valid: bool = True
    spans: SpanRecorder | None = None
    latencies: list[float] = field(default_factory=list)

    def record_latencies(self, latencies_s: list[float]) -> None:
        """Keep per-operation latencies for the result file and report their median."""
        self.latencies = list(latencies_s)
        self.metrics["latency_p50_ms"] = statistics.median(latencies_s) * 1e3


def environment(root: Path, seed: int) -> dict:
    """What a comparison between two sets of runs must hold equal (plus commit and seed)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nn.cpu_count(),
        "blas": nn.blas_backend_info(),
        "blas_env": nn.blas_env_settings(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def connections() -> int:
    """Load-generator connections (and threads): at most 2, at most the core count."""
    return min(2, nn.cpu_count())


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], object]) -> float:
    start = clock()
    fn()
    return clock() - start


def timed_rounds(round_fn: Callable[[], object], seconds: float) -> list[float]:
    """Durations of whole rounds run until ``seconds`` have passed (at least MIN_ROUNDS)."""
    rounds: list[float] = []
    deadline = clock() + seconds
    while len(rounds) < MIN_ROUNDS or clock() < deadline:
        rounds.append(_timed(round_fn))
    return rounds


def throughput(items_per_round: int, round_times: list[float]) -> float:
    """Items per second at the median round time.

    A round is fixed work that scores every distinct input once, so a
    slowdown of any one batch, or one that recurs within a round, shows.
    """
    return items_per_round / statistics.median(round_times)


def alternating_rounds(
    round_fn: Callable[[bool], object], seconds: float
) -> tuple[list[float], list[float]]:
    """Untraced and traced round durations, alternating, until ``seconds`` have passed."""
    plain: list[float] = []
    traced: list[float] = []
    deadline = clock() + seconds
    while min(len(plain), len(traced)) < MIN_ROUNDS or clock() < deadline:
        tracing = len(traced) < len(plain)
        (traced if tracing else plain).append(_timed(lambda: round_fn(tracing)))
    return plain, traced


def overhead(plain: list[float], traced: list[float]) -> float:
    return statistics.median(traced) / statistics.median(plain) - 1.0


def traced_classify_metrics(recorder: SpanRecorder, engine: InferenceEngine) -> tuple[dict, list]:
    """Per-layer metrics and guard failures of the traced ``classify_arrays`` calls."""
    errors = conservation_errors(recorder.spans, layers.CLASSIFY_EXPECTED)
    if errors:
        return {}, errors
    metrics = layers.classify_metrics(recorder.spans, layers.fc_flops_per_row(engine))
    metrics.update(layers.conv_gemm_shares(recorder.spans))
    total = sum(metrics[name] for name in layers.CLASSIFY_SHARES.values())
    if abs(total - 1.0) > 0.02:
        errors.append(f"classify self shares sum to {total:.4f}, not 1 ± 0.02")
    metrics["blas.sgemm_gflops"] = layers.sgemm_gflops()
    return metrics, errors


@contextlib.contextmanager
def workspace_hits(metrics: dict) -> object:
    """Record the conv workspace cache's hit share over the block."""
    before = nn.workspace_total_stats()
    yield
    after = nn.workspace_total_stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics["cnn.workspace_hit_share"] = hits / lookups if lookups else 0.0


def check_classified(
    model: Path,
    batches: list[tuple[np.ndarray, np.ndarray]],
    outputs: list[tuple[int, list]],
) -> int:
    """Mismatched samples among ``(batch index, results)`` outputs.

    The reference is the chunked-``predict`` engine (``fused=False``)
    scoring each batch in contiguous ``inputs.BATCH``-sample pieces —
    the shapes the measured engine or pool workers scored.
    """
    reference = InferenceEngine.from_directory(str(model), fused=False)
    step = inputs.BATCH
    refs = [
        [
            from_result(r)
            for start in range(0, len(pairs), step)
            for r in reference.classify_arrays(pairs[start : start + step],
                                               mjd[start : start + step])
        ]
        for pairs, mjd in batches
    ]
    return sum(
        len(mismatched([from_result(r) for r in results], refs[b][: len(results)]))
        for b, results in outputs
    )


# ----------------------------------------------------------------------
# classify_clean / classify_degraded
# ----------------------------------------------------------------------
def run_classify(ctx: Context, degraded: bool) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    batches = [inputs.clean_batch(rng) for _ in range(inputs.N_BATCHES)]
    if degraded:
        batches = [(inputs.degrade(pairs, rng), mjd) for pairs, mjd in batches]
    model = ctx.model()

    setups = []
    for _ in range(SETUP_REPEATS):
        engine = None
        nn.workspace_clear()  # every set-up starts as cold as a fresh process
        start = clock()
        engine = InferenceEngine.from_directory(str(model))
        engine.classify_arrays(*batches[0])
        setups.append(clock() - start)

    outputs: list[tuple[int, list]] = []
    latencies: list[float] = []

    def one_round() -> None:
        for b, (pairs, mjd) in enumerate(batches):
            start = clock()
            results = engine.classify_arrays(pairs, mjd)
            latencies.append(clock() - start)
            outputs.append((b, results))

    outcome = Outcome({}, attempted=0, failed=0)
    if ctx.trace:
        recorder = SpanRecorder()
        targets = layers.engine_targets(engine)

        def round_fn(tracing: bool) -> None:
            with patched(recorder, targets) if tracing else contextlib.nullcontext():
                one_round()

        with workspace_hits(outcome.metrics):
            plain, traced = alternating_rounds(round_fn, ctx.seconds)
        layer, outcome.errors = traced_classify_metrics(recorder, engine)
        outcome.metrics.update(layer)
        outcome.metrics["trace.overhead"] = overhead(plain, traced)
        outcome.spans = recorder
    else:
        rounds = timed_rounds(one_round, ctx.seconds)
        outcome.metrics.update(
            setup_s=statistics.median(setups),
            samples_per_s=throughput(len(batches) * inputs.BATCH, rounds),
            peak_rss_mb=peak_rss_mb(),
        )
        outcome.record_latencies(latencies)
    outcome.attempted = sum(len(results) for _, results in outputs)
    outcome.failed = check_classified(model, batches, outputs)
    return outcome


# ----------------------------------------------------------------------
# classify_pool2
# ----------------------------------------------------------------------
def run_pool(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    shards = [inputs.clean_batch(rng) for _ in range(inputs.N_BATCHES)]
    batches = [
        (np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))
        for a, b in zip(shards[::2], shards[1::2])
    ]
    model = ctx.model()
    outcome = Outcome({}, attempted=0, failed=0)
    outputs: list[tuple[int, list]] = []
    dispatches: list[float] = []

    def one_round() -> None:
        for b, (pairs, mjd) in enumerate(batches):
            start = clock()
            results = pool.classify_arrays(pairs, mjd)
            dispatches.append(clock() - start)
            outputs.append((b, results))

    setups = []
    pool = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.close()
            start = clock()
            pool = ScoringPool(model_source=str(model), config=PoolConfig(workers=POOL_WORKERS))
            pool.start()
            pool.classify_arrays(*batches[0])
            setups.append(clock() - start)

        before = pool.stats()
        rounds = timed_rounds(one_round, ctx.seconds / 2 if ctx.trace else ctx.seconds)
        after = pool.stats()
        pool_rate = throughput(len(batches) * POOL_DISPATCH, rounds)
        if not ctx.trace:
            outcome.metrics.update(
                setup_s=statistics.median(setups),
                samples_per_s=pool_rate,
                peak_rss_mb=peak_rss_mb() + sum(peak_rss_mb(pid) for pid in pool.pids()),
            )
            outcome.record_latencies(dispatches)
    finally:
        if pool is not None:
            pool.close()

    if ctx.trace:
        n = len(dispatches)
        outcome.metrics.update({
            "pool.dispatch_ms": statistics.median(dispatches) * 1e3,
            "pool.scatter_ms": (after["scatter_s_total"] - before["scatter_s_total"]) / n * 1e3,
            "pool.gather_ms": (after["gather_s_total"] - before["gather_s_total"]) / n * 1e3,
            "pool.shm_overflow": after["shm_overflow"],
            "pool.respawns": after["respawns"],
            "pool.crashes": after["crashes"],
        })
        # One shard of each dispatch, scored in this process at the
        # workers' BLAS thread count (run.py pins it for this workload).
        engine = InferenceEngine.from_directory(str(model))
        engine.classify_arrays(*shards[0])
        recorder = SpanRecorder()
        targets = layers.engine_targets(engine)
        shard_calls: list[float] = []

        def shard_round(tracing: bool) -> None:
            with patched(recorder, targets) if tracing else contextlib.nullcontext():
                for b, (pairs, mjd) in enumerate(batches):
                    start = clock()
                    results = engine.classify_arrays(pairs[: inputs.BATCH], mjd[: inputs.BATCH])
                    if not tracing:
                        shard_calls.append(clock() - start)
                    outputs.append((b, results))

        with workspace_hits(outcome.metrics):
            plain, traced = alternating_rounds(shard_round, ctx.seconds / 2)
        layer, outcome.errors = traced_classify_metrics(recorder, engine)
        outcome.metrics.update(layer)
        shard_ms = statistics.median(shard_calls) * 1e3
        in_process_rate = throughput(len(batches) * inputs.BATCH, plain)
        outcome.metrics.update({
            "pool.shard_ms": shard_ms,
            "pool.overhead_ms": outcome.metrics["pool.dispatch_ms"] - shard_ms,
            "pool.speedup": pool_rate / in_process_rate,
            "trace.overhead": overhead(plain, traced),
        })
        outcome.spans = recorder
    outcome.attempted = sum(len(results) for _, results in outputs)
    outcome.failed = check_classified(model, batches, outputs)
    return outcome


# ----------------------------------------------------------------------
# serve_steady / serve_saturated
# ----------------------------------------------------------------------
def run_serve(ctx: Context, saturated: bool) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    pairs, mjd = inputs.clean_batch(rng, SERVE_BODIES)
    bodies = [inputs.request_body(pairs[i], mjd[i]) for i in range(SERVE_BODIES)]
    offsets = (
        None if saturated
        else poisson_offsets(SERVE_RATE, ctx.seconds, np.random.default_rng(SCHEDULE_SEED))
    )
    model = ctx.model()
    outcome = Outcome({}, attempted=0, failed=0)

    setups = []
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            start = clock()
            daemon = Daemon(ctx.root, model, ctx.work / f"serve{k}.log")
            daemon.wait_ready()
            setups.append(clock() - start)
        # Independent users (open loop) connect per request; callers
        # waiting on replies (closed loop) keep their connection alive.
        clients = [
            Connection(daemon.port, bodies, keep_alive=saturated) for _ in range(connections())
        ]
        closed_loop(SERVE_WARMUP_S, clients, len(bodies))
        before, cpu_before = daemon.metrics(), cpu_seconds(daemon.pid)
        if saturated:
            records = closed_loop(ctx.seconds, clients, len(bodies))
        else:
            records = open_loop(offsets, clients, len(bodies))
        after, cpu_after = daemon.metrics(), cpu_seconds(daemon.pid)
        daemon_rss = peak_rss_mb(daemon.pid)
        for client in clients:
            client.close()
    finally:
        if daemon is not None:
            daemon.stop()

    ok = [r for r in records if r.status == 200]
    sched_lag_p95 = np.percentile([r.sched_lag for r in records], 95) * 1e3
    if sched_lag_p95 > MAX_SCHED_LAG_MS:
        outcome.valid = False
        outcome.notes.append(
            f"invalid: load generator ran {sched_lag_p95:.2f} ms late at p95 "
            f"(limit {MAX_SCHED_LAG_MS} ms)"
        )
    if ctx.trace:
        outcome.metrics.update(
            _daemon_metrics(model, pairs, mjd, bodies, records, before, after,
                            cpu_after - cpu_before, outcome)
        )
        outcome.metrics["client.sched_lag_ms_p95"] = sched_lag_p95
        outcome.metrics["client.conn_wait_ms_p95"] = (
            np.percentile([r.conn_wait for r in records], 95) * 1e3
        )
    else:
        good = [r for r in ok if r.latency * 1e3 <= LATENCY_LIMIT_MS]
        window = max(r.done for r in records) - min(r.due for r in records)
        outcome.metrics.update(
            setup_s=statistics.median(setups),
            samples_per_s=len(good) / window,
            peak_rss_mb=daemon_rss,
        )
        outcome.record_latencies([r.latency for r in ok])

    # Each body scored alone: what the daemon answers when it batches
    # nothing; see checks.MICROBATCH_TOL for the batches it does form.
    reference = InferenceEngine.from_directory(str(model), fused=False)
    refs = [
        from_result(reference.classify_arrays(pairs[i : i + 1], mjd[i : i + 1])[0])
        for i in range(SERVE_BODIES)
    ]
    outcome.attempted = len(records)
    outcome.failed = (len(records) - len(ok)) + len(
        mismatched([from_payload(r.payload) for r in ok], [refs[r.body] for r in ok],
                   tol=MICROBATCH_TOL)
    )
    return outcome


def _daemon_metrics(
    model: Path,
    pairs: np.ndarray,
    mjd: np.ndarray,
    bodies: list[bytes],
    records: list[Record],
    before: dict,
    after: dict,
    cpu_s: float,
    outcome: Outcome,
) -> dict[str, float]:
    """The daemon's layers, from its own counters and from replaying its steps here."""

    def delta(name: str) -> float:
        return after[name] - before[name]

    queue_score_ms = delta("daemon_latency_s_sum") / delta("daemon_latency_s_count") * 1e3
    batch_size = delta("daemon_responses") / delta("daemon_batches")
    service_ms = statistics.fmean(r.service for r in records if r.status == 200) * 1e3

    def decode(body: bytes) -> None:
        doc = json.loads(body)
        np.asarray(doc["pairs"], dtype=np.float32)
        np.asarray(doc["mjd"], dtype=np.float32)

    decode_ms = statistics.median(_timed(lambda: decode(body)) for body in bodies) * 1e3

    # The daemon scores micro-batches of the observed mean size; replay
    # that call here, untraced for its time and traced for its layers.
    n = max(1, round(batch_size))
    engine = InferenceEngine.from_directory(str(model))
    engine.classify_arrays(pairs[:n], mjd[:n])
    recorder = SpanRecorder()
    targets = layers.engine_targets(engine)

    def score_round(tracing: bool) -> None:
        with patched(recorder, targets) if tracing else contextlib.nullcontext():
            engine.classify_arrays(pairs[:n], mjd[:n])

    metrics: dict[str, float] = {}
    with workspace_hits(metrics):
        plain, traced = alternating_rounds(score_round, SCORE_PROBE_S)
    layer, outcome.errors = traced_classify_metrics(recorder, engine)
    metrics.update(layer)
    outcome.spans = recorder
    score_ms = statistics.median(plain) * 1e3
    metrics.update({
        "daemon.cpu_ms_per_request": cpu_s / len(records) * 1e3,
        "daemon.queue_score_ms": queue_score_ms,
        "daemon.batch_size_mean": batch_size,
        "daemon.decode_ms": decode_ms,
        "daemon.score_ms": score_ms,
        "daemon.wait_ms": queue_score_ms - score_ms,
        "daemon.outside_queue_ms": service_ms - queue_score_ms,
        "trace.overhead": overhead(plain, traced),
    })
    return metrics


# ----------------------------------------------------------------------
# train_cnn
# ----------------------------------------------------------------------
def run_train(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    data = []
    for _ in range(inputs.N_BATCHES):
        pairs, _ = inputs.clean_batch(rng)
        mags = rng.uniform(20.0, 25.0, size=inputs.BATCH).astype(np.float32)
        data.append((nn.Tensor(np.ascontiguousarray(pairs[:, 0])), nn.Tensor(mags)))
    loss_fn = nn.MSELoss()
    losses: list[float] = []
    latencies: list[float] = []
    recorder = SpanRecorder()

    def step(cnn: BandwiseCNN, optimizer: nn.Optimizer, x: nn.Tensor, y: nn.Tensor,
             tracing: bool) -> None:
        def phase(name: str) -> contextlib.AbstractContextManager:
            return recorder.span(name) if tracing else contextlib.nullcontext()

        start = clock()
        with phase(layers.TRAIN_ROOT):
            with phase("train.zero_grad"):
                optimizer.zero_grad()
            with phase("train.forward"):
                loss = loss_fn(cnn.forward(x), y)
            with phase("train.backward"):
                loss.backward()
            with phase("train.optim"):
                optimizer.step()
        latencies.append(clock() - start)
        losses.append(loss.item())

    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        cnn = BandwiseCNN(input_size=inputs.INPUT_SIZE, rng=np.random.default_rng(ctx.seed))
        cnn.train()
        optimizer = nn.Adam(cnn.parameters(), lr=1e-4)
        step(cnn, optimizer, *data[0], tracing=False)
        setups.append(clock() - start)
    latencies.clear()

    def one_round(tracing: bool = False) -> None:
        for x, y in data:
            step(cnn, optimizer, x, y, tracing)

    outcome = Outcome({}, attempted=0, failed=0)
    if ctx.trace:
        plain, traced = alternating_rounds(one_round, ctx.seconds)
        expected = {(layers.TRAIN_ROOT, name): 1 for name in layers.TRAIN_SHARES}
        outcome.errors = conservation_errors(recorder.spans, expected)
        outcome.metrics.update(layers.self_shares(recorder.spans, layers.TRAIN_ROOT,
                                                  layers.TRAIN_SHARES))
        outcome.metrics["trace.overhead"] = overhead(plain, traced)
        outcome.metrics["blas.sgemm_gflops"] = layers.sgemm_gflops()
        outcome.spans = recorder
    else:
        rounds = timed_rounds(one_round, ctx.seconds)
        outcome.metrics.update(
            setup_s=statistics.median(setups),
            samples_per_s=throughput(len(data) * inputs.BATCH, rounds),
            peak_rss_mb=peak_rss_mb(),
        )
        outcome.record_latencies(latencies)
    outcome.attempted = len(losses)
    outcome.failed = sum(not np.isfinite(loss) for loss in losses)
    return outcome


#: Workload name -> measurement; the names and reasons live in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "classify_clean": lambda ctx: run_classify(ctx, degraded=False),
    "classify_degraded": lambda ctx: run_classify(ctx, degraded=True),
    "classify_pool2": run_pool,
    "serve_steady": lambda ctx: run_serve(ctx, saturated=False),
    "serve_saturated": lambda ctx: run_serve(ctx, saturated=True),
    "train_cnn": run_train,
}
