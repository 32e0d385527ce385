"""Multi-process scoring pool: parity, crash healing, version swaps, stream.

The pool's promise is that scattering a batch across worker processes
changes *nothing* observable but the wall clock.  The parity tests pin
that bit for bit: every :class:`PredictionResult` field the pool returns
equals the full-batch single-process ``engine.classify_arrays`` result.
A sample's score does not depend on its batch-mates, so neither the
shard plan, the shared-memory transport nor a heal's one-at-a-time
re-score can move it.

Crash tests use real ``SIGKILL`` — both external (``pool.pids()``) and
from inside a worker via the picklable
:class:`~repro.runtime.faults.CrashWorkerOnMarker` seam — and assert
the respawn budget, per-sample culprit isolation and the
:class:`PoolBrokenError` endgame.
"""

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import obs
from repro.obs.log import EVENTS_FILE, read_events
from repro.registry import ModelRegistry
from repro.nn import cpu_count
from repro.runtime.errors import CorruptArtifactError, TrainingDiverged
from repro.runtime.faults import (
    CrashWorkerOnMarker,
    DropBand,
    NaNPixels,
    RaiseWorkerOnMarker,
    WedgeWorkerOnMarker,
)
from repro.serve import daemon as daemon_module
from repro.serve import pool as pool_module
from repro.serve import (
    DegradedInputError,
    InferenceEngine,
    PoolBrokenError,
    PoolConfig,
    PredictionResult,
    ScoringPool,
    WorkerCrashError,
)
from repro.serve.daemon import DaemonConfig

from .helpers import (
    FailWorkerBoot,
    classify_body,
    make_serve_engine,
    make_serve_sample,
    post_classify,
    running_registry_daemon,
    smoke_classify_workload,
)

pytestmark = pytest.mark.serve

#: Magic first-pixel value CrashWorkerOnMarker kills on; far outside the
#: N(0, 30) pixel distribution of the test batches.
MARKER = 12345.0


@pytest.fixture(scope="module")
def engine():
    return make_serve_engine(seed=0)


@pytest.fixture(scope="module")
def batch(engine):
    rng = np.random.default_rng(42)
    n, v, s = 12, engine._n_used_visits, 40
    pairs = rng.normal(0.0, 30.0, size=(n, v, 2, s, s)).astype(np.float32)
    mjd = np.tile(
        (57000.0 + np.arange(v) * 0.01).astype(np.float32), (n, 1)
    )
    return pairs, mjd


@pytest.fixture(scope="module")
def shared_pool(engine):
    """One warm 2-worker pool reused by the read-only tests."""
    pool = ScoringPool(engine=engine, config=PoolConfig(workers=2))
    pool.start()
    yield pool
    pool.close()


def reaped(pids):
    """True once no process with any of ``pids`` exists."""
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        return False
    return True


def assert_reaped(pids):
    """No process with any of ``pids`` exists any more."""
    assert reaped(pids)


def wait_for(predicate, timeout_s=15.0):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"condition not reached within {timeout_s}s")
        time.sleep(0.02)


def assert_bit_exact(got, want):
    """Every observable PredictionResult field matches bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.index == w.index
        assert g.probability == w.probability
        assert g.confidence == w.confidence
        assert (np.isnan(g.flux_feature) and np.isnan(w.flux_feature)) or (
            g.flux_feature == w.flux_feature
        )
        assert g.degraded == w.degraded
        assert g.usable_bands == w.usable_bands
        assert g.error == w.error


class TestPoolLifecycle:
    def test_requires_exactly_one_source(self, engine):
        with pytest.raises(ValueError, match="exactly one"):
            ScoringPool()
        with pytest.raises(ValueError, match="exactly one"):
            ScoringPool(model_source="/tmp/x", engine=engine)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(workers=0)
        with pytest.raises(ValueError):
            PoolConfig(task_timeout_s=0.0)
        with pytest.raises(ValueError):
            PoolConfig(task_timeout_s=float("nan"))

    def test_close_is_idempotent_and_fatal(self, engine, batch):
        pairs, mjd = batch
        pool = ScoringPool(engine=engine, config=PoolConfig(workers=1))
        assert not pool.started and not pool.closed
        pool.start()
        assert pool.started and not pool.closed
        assert len(pool.pids()) == 1
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(PoolBrokenError):
            pool.classify_arrays(pairs, mjd)

    def test_failed_start_reaps_booted_workers(self, engine, monkeypatch):
        """A start() failing on worker 1 leaves worker 0 neither alive nor
        holding the shm ring: no caller can close a pool whose start raised
        (``with`` never runs ``__exit__`` when ``__enter__`` raises)."""
        ring_names = []
        spawn = ScoringPool._spawn

        def spy(pool, worker_id):
            ring_names.append(pool._shm.name)
            return spawn(pool, worker_id)

        monkeypatch.setattr(ScoringPool, "_spawn", spy)
        before = set(multiprocessing.active_children())
        pool = ScoringPool(
            engine=engine, config=PoolConfig(workers=2),
            worker_init=FailWorkerBoot(worker_id=1),
        )
        with pytest.raises(RuntimeError, match="refused to boot"):
            with pool:
                pass
        assert not pool.started and pool.pids() == []
        assert [p for p in multiprocessing.active_children() if p not in before] == []
        assert ring_names
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ring_names[0])

    def test_close_reaps_every_worker(self, engine, batch):
        pairs, mjd = batch
        pool = ScoringPool(engine=engine, config=PoolConfig(workers=2))
        pool.start()
        pool.classify_arrays(pairs, mjd)
        pids = pool.pids()
        assert len(pids) == 2
        pool.close()
        assert_reaped(pids)

    def test_stats_shape(self, shared_pool, engine, batch):
        pairs, mjd = batch
        shared_pool.classify_arrays(pairs, mjd)
        stats = shared_pool.stats()
        assert stats["workers"] == 2
        assert stats["slots"] == stats["workers"]  # one slot per worker
        assert stats["samples"] >= len(pairs)
        assert stats["blas_threads"] >= 1
        assert len(stats["per_worker"]) == 2
        for entry in stats["per_worker"]:
            assert entry["alive"]
            assert 0.0 <= entry["utilization"] <= 1.0

    def test_input_validation_matches_engine(self, shared_pool, engine, batch):
        pairs, mjd = batch
        with pytest.raises(ValueError, match=r"expected \(N, V, 2, S, S\)"):
            shared_pool.classify_arrays(pairs[:, :, :1], mjd)
        with pytest.raises(ValueError, match="does not match pairs"):
            shared_pool.classify_arrays(pairs, mjd[:3])
        assert shared_pool.classify_arrays(pairs[:0], mjd[:0]) == []


class TestPoolParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_transport_bit_exact_clean(self, engine, batch, workers):
        pairs, mjd = batch
        want = engine.classify_arrays(pairs, mjd)
        with ScoringPool(
            engine=engine, config=PoolConfig(workers=workers)
        ) as pool:
            got = pool.classify_arrays(pairs, mjd)
        assert_bit_exact(got, want)

    def test_wire_parity_vs_full_batch(self, shared_pool, engine, batch):
        """A warm pool serves the full-batch reference's wire lines exactly."""
        pairs, mjd = batch
        want = engine.classify_arrays(pairs, mjd)
        for _ in range(2):  # the second call reuses the warm workers and ring
            got = shared_pool.classify_arrays(pairs, mjd)
            assert_bit_exact(got, want)
            assert [r.to_dict() for r in got] == [r.to_dict() for r in want]

    @pytest.mark.parametrize(
        "corruptor",
        [DropBand([1, 3]), NaNPixels(fraction=0.2, seed=9)],
        ids=["drop-band", "nan-pixels"],
    )
    def test_parity_under_corruptors(self, shared_pool, engine, batch, corruptor):
        pairs, mjd = batch
        corrupted = corruptor(pairs)
        want = engine.classify_arrays(corrupted, mjd)
        got = shared_pool.classify_arrays(corrupted, mjd)
        assert any(r.degraded for r in want)  # the corruption bites
        assert_bit_exact(got, want)

    def test_float16_precision_parity(self, engine, batch, tmp_path):
        # Half-precision pixels through a pool loaded from disk score bit
        # for bit like the single-process engine on the same input, and
        # like their float32 widening: one inference precision.
        pairs, mjd = batch
        pairs16 = pairs.astype(np.float16)
        engine.save(str(tmp_path / "model"))
        loaded = InferenceEngine.from_directory(tmp_path / "model")
        want = loaded.classify_arrays(pairs16, mjd)
        assert_bit_exact(
            loaded.classify_arrays(pairs16.astype(np.float32), mjd), want
        )
        with ScoringPool(
            model_source=tmp_path / "model", config=PoolConfig(workers=2)
        ) as pool:
            got = pool.classify_arrays(pairs16, mjd)
        assert_bit_exact(got, want)

    def test_strict_error_matches_single_process(self, engine, batch):
        pairs, mjd = batch
        corrupted = DropBand([0, 1, 2, 3, 4])(pairs[:4])  # fully masked
        with pytest.raises(DegradedInputError) as single_exc:
            engine.classify_arrays(corrupted, mjd[:4], strict=True)
        with ScoringPool(
            engine=engine, config=PoolConfig(workers=2)
        ) as pool:
            with pytest.raises(DegradedInputError) as pool_exc:
                pool.classify_arrays(corrupted, mjd[:4], strict=True)
        # Contiguous shards raise for the globally-first failing sample,
        # so the typed error is identical to the single-process one.
        assert str(pool_exc.value) == str(single_exc.value)
        assert pool_exc.value.index == single_exc.value.index

        # The typed error's diagnosis survives the worker's reply.
        for field in ("visit", "band", "reason"):
            assert getattr(pool_exc.value, field) == getattr(single_exc.value, field)

        # ``classify --workers N --strict`` passes strict to the stream
        # call, so the pool stream refuses like the engine stream: same
        # index, same message.
        dataset = _ArrayDataset(corrupted, mjd[:4])
        with pytest.raises(DegradedInputError) as engine_stream_exc:
            list(engine.stream(dataset, batch_size=2, strict=True))
        with ScoringPool(engine=engine, config=PoolConfig(workers=2)) as pool:
            with pytest.raises(DegradedInputError) as pool_stream_exc:
                list(pool.stream(dataset, batch_size=1, strict=True))
        assert pool_stream_exc.value.index == engine_stream_exc.value.index
        assert str(pool_stream_exc.value) == str(engine_stream_exc.value)
        assert engine_stream_exc.value.index == single_exc.value.index

    def test_shm_ring_grows_for_oversized_shard(self, engine, batch, monkeypatch):
        pairs, mjd = batch
        want = engine.classify_arrays(pairs, mjd)
        # One-sample shards fit a slot; the six-sample shards below do not.
        monkeypatch.setattr(pool_module, "SLOT_BYTES", 1 << 17)
        with ScoringPool(engine=engine, config=PoolConfig(workers=2)) as pool:
            small = pool.classify_arrays(pairs[:2], mjd[:2])
            assert_bit_exact(small, engine.classify_arrays(pairs[:2], mjd[:2]))
            assert pool.stats()["shm_overflow"] == 0
            # Workers attached to the first ring re-attach to the grown one.
            got = pool.classify_arrays(pairs, mjd)
            stats = pool.stats()
            assert stats["shm_overflow"] == 1
            assert stats["slot_bytes"] > 1 << 17
            assert stats["crashes"] == 0  # not healed: scored on the new ring
            assert_bit_exact(pool.classify_arrays(pairs, mjd), want)
            assert pool.stats()["shm_overflow"] == 1
        assert_bit_exact(got, want)


#: Required 4-worker speedup over in-process classify, and the core
#: count below which it is not asserted: a smaller box cannot express
#: 4-way process parallelism (the parity tests above still run there).
MP_SPEEDUP_GATE = 3.0
MP_GATE_MIN_CORES = 4


def _median_seconds(fn, repeats=2):
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


class TestPoolSpeedup:
    @pytest.mark.skipif(
        cpu_count() < MP_GATE_MIN_CORES,
        reason=f"speedup gate needs {MP_GATE_MIN_CORES}+ cores",
    )
    def test_four_workers_beat_in_process_classify(self):
        # Each pool dispatch carries batch x workers samples, so every
        # worker's shard is at most one in-process batch; pool startup
        # is outside the timed region.
        n, batch_size, workers = 32, 16, 4
        engine, pairs, mjd = smoke_classify_workload(seed=2, n=n)

        def scatter(scorer, step):
            for start in range(0, n, step):
                scorer.classify_arrays(
                    pairs[start : start + step], mjd[start : start + step]
                )

        single = _median_seconds(lambda: scatter(engine, batch_size))
        with ScoringPool(engine=engine, config=PoolConfig(workers=workers)) as pool:
            pooled = _median_seconds(lambda: scatter(pool, batch_size * workers))
        speedup = single / pooled
        assert speedup >= MP_SPEEDUP_GATE, (
            f"{workers} workers ran {speedup:.2f}x in-process classify "
            f"(gate {MP_SPEEDUP_GATE:.1f}x)"
        )


class TestPoolCrash:
    def test_external_sigkill_heals_and_respawns(self, engine, batch):
        pairs, mjd = batch
        want = engine.classify_arrays(pairs, mjd)
        with ScoringPool(
            engine=engine, config=PoolConfig(workers=2)
        ) as pool:
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            healed = pool.classify_arrays(pairs, mjd)
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["respawns"] >= 1
            assert victim not in pool.pids()
            assert len(pool.pids()) == 2
            # The healed batch re-scored crashed samples one at a time,
            # and a sample scores the same alone as in its shard.
            assert_bit_exact(healed, want)
            assert_bit_exact(pool.classify_arrays(pairs, mjd), want)

    def test_marked_group_crash_is_healed_per_sample(self, engine, batch):
        """A mid-batch SIGKILL hurts nobody: every sample still scores."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[5, 0, 0, 0, 0] = MARKER
        want = engine.classify_arrays(marked, mjd)
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=CrashWorkerOnMarker(MARKER, min_batch=2),
        ) as pool:
            got = pool.classify_arrays(marked, mjd)
            stats = pool.stats()
        # The culprit's shard died mid-batch; after respawn each of its
        # samples re-scored alone (batch of 1 < min_batch passes).
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1
        assert stats["crashed_shards"] >= 1
        assert stats["poison_samples"] == 0
        assert [r.error for r in got] == [None] * len(got)
        assert_bit_exact(got, want)

    def test_repeat_offender_becomes_failed_placeholder(self, engine, batch):
        """A sample that kills every worker that touches it is isolated."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[7, 0, 0, 0, 0] = MARKER
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=CrashWorkerOnMarker(MARKER, min_batch=1),
        ) as pool:
            got = pool.classify_arrays(marked, mjd)
            stats = pool.stats()
        assert stats["poison_samples"] == 1
        assert len(got) == len(pairs)
        culprit = got[7]
        assert culprit.error is not None and "WorkerCrashError" in culprit.error
        assert culprit.probability == 0.5 and culprit.confidence == 0.0
        clean = [r for i, r in enumerate(got) if i != 7]
        assert all(r.error is None for r in clean)

    def test_strict_mode_raises_worker_crash_error(self, engine, batch):
        pairs, mjd = batch
        marked = pairs.copy()
        marked[2, 0, 0, 0, 0] = MARKER
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=CrashWorkerOnMarker(MARKER, min_batch=1),
        ) as pool:
            with pytest.raises(WorkerCrashError):
                pool.classify_arrays(marked, mjd, strict=True)

    def test_respawn_budget_exhaustion_breaks_the_pool(
        self, engine, batch, monkeypatch
    ):
        pairs, mjd = batch
        marked = pairs.copy()
        marked[:, 0, 0, 0, 0] = MARKER  # every sample is poison
        monkeypatch.setattr(pool_module, "RESPAWN_DELAYS_S", (0.01,))
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=CrashWorkerOnMarker(MARKER, min_batch=1),
        ) as pool:
            with pytest.raises(PoolBrokenError):
                pool.classify_arrays(marked, mjd)
            # Broken is terminal: the next dispatch refuses immediately.
            with pytest.raises(PoolBrokenError):
                pool.classify_arrays(pairs, mjd)


def _two_version_registry(tmp_path, engine):
    """``engine`` as production v1, and a v2 with different weights."""
    engine.save(str(tmp_path / "model-v1"))
    make_serve_engine(seed=77).save(str(tmp_path / "model-v2"))
    registry = ModelRegistry(tmp_path / "registry")
    registry.promote(registry.register(tmp_path / "model-v1"))
    registry.register(tmp_path / "model-v2")
    return registry


def _version_scores(registry, pairs, mjd):
    """Each version's in-process result for one sample."""
    return {
        version: InferenceEngine.from_directory(registry.path(version))
        .classify_arrays(pairs[None], mjd[None])
        for version in ("v1", "v2")
    }


class TestPoolReload:
    """A pool serves one model for life: a pool-mode registry daemon
    swaps versions by booting a new pool and closing the old one."""

    def test_reload_swaps_exactly_once_and_is_deterministic(self, engine, tmp_path):
        registry = _two_version_registry(tmp_path, engine)
        pairs, mjd = make_serve_sample(engine, seed=4)
        want = _version_scores(registry, pairs, mjd)
        # The models genuinely disagree, so the swap demonstrably lands.
        assert want["v1"][0].probability != want["v2"][0].probability
        body = classify_body(pairs, mjd, deadline_ms=30000)
        config = DaemonConfig(
            scoring_workers=2, reload_poll_s=0.05, batch_deadline_ms=2.0
        )
        with running_registry_daemon(registry, config) as daemon:
            v1_pool = daemon._pool
            v1_pids = v1_pool.pids()
            status, doc = post_classify(daemon.port, body)
            assert status == 200
            assert doc["result"]["probability"] == round(want["v1"][0].probability, 6)
            assert_bit_exact(v1_pool.classify_arrays(pairs[None], mjd[None]), want["v1"])

            registry.promote("v2")
            wait_for(lambda: daemon._engine_version == "v2")
            wait_for(lambda: reaped(v1_pids))
            assert v1_pool.closed
            v2_pool = daemon._pool
            assert v2_pool is not v1_pool
            assert set(v2_pool.pids()).isdisjoint(v1_pids)
            status, doc = post_classify(daemon.port, body)
            assert status == 200
            assert doc["result"]["probability"] == round(want["v2"][0].probability, 6)
            assert_bit_exact(v2_pool.classify_arrays(pairs[None], mjd[None]), want["v2"])

            metrics = daemon.metrics
            assert int(metrics.counter("daemon.reloads").value) == 1
            assert int(metrics.counter("daemon.served.v1").value) + int(
                metrics.counter("daemon.served.v2").value
            ) == int(metrics.counter("daemon.responses").value) == 2

    def test_failed_reload_rolls_back_every_worker(
        self, engine, tmp_path, monkeypatch
    ):
        """A v2 whose pool cannot boot leaves v1 serving bit for bit, logs
        one typed ``registry.reload_failed`` and leaks no process."""
        registry = _two_version_registry(tmp_path, engine)
        v2_source = registry.path("v2")

        def pool_factory(model_source=None, **kwargs):
            if model_source is not None and os.fspath(model_source) == v2_source:
                kwargs["worker_init"] = FailWorkerBoot(worker_id=1)
            return ScoringPool(model_source=model_source, **kwargs)

        monkeypatch.setattr(daemon_module, "ScoringPool", pool_factory)
        pairs, mjd = make_serve_sample(engine, seed=4)
        want = _version_scores(registry, pairs, mjd)["v1"]
        body = classify_body(pairs, mjd, deadline_ms=30000)
        config = DaemonConfig(
            scoring_workers=2, reload_poll_s=0.05, batch_deadline_ms=2.0
        )
        before = set(multiprocessing.active_children())
        telemetry = tmp_path / "telemetry"
        obs.start(telemetry, run_id="run-poolboot")
        try:
            with running_registry_daemon(registry, config) as daemon:
                v1_pool = daemon._pool
                v1_children = set(multiprocessing.active_children()) - before
                assert len(v1_children) == 2
                registry.promote("v2")
                wait_for(
                    lambda: daemon.metrics.counter("daemon.reload_failures").value >= 1
                )
                time.sleep(0.3)  # more polls: the failed-version memo holds
                assert set(multiprocessing.active_children()) - before == v1_children
                assert daemon._engine_version == "v1"
                assert daemon._pool is v1_pool and not v1_pool.closed
                status, doc = post_classify(daemon.port, body)
                assert status == 200
                assert doc["result"]["probability"] == round(want[0].probability, 6)
                assert_bit_exact(v1_pool.classify_arrays(pairs[None], mjd[None]), want)
        finally:
            obs.stop()
        failures = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "registry.reload_failed"
        ]
        assert len(failures) == 1
        assert failures[0]["version"] == "v2"
        assert failures[0]["error_type"] == "RuntimeError"


class _ArrayDataset:
    def __init__(self, pairs, mjd):
        self.pairs = pairs
        self.visit_mjd = mjd

    def __len__(self):
        return len(self.pairs)


class TestPoolStream:
    def test_stream_orders_and_matches_classify(self, shared_pool, engine, batch):
        pairs, mjd = batch
        dataset = _ArrayDataset(pairs, mjd)
        want = engine.classify_arrays(pairs, mjd)
        got = list(shared_pool.stream(dataset, batch_size=6))
        assert [r.index for r in got] == list(range(len(pairs)))
        assert_bit_exact(got, want)

    @pytest.mark.obs
    def test_stream_audits_every_sample_like_the_engine(
        self, shared_pool, engine, batch, tmp_path
    ):
        """Workers run no telemetry session: the pool's parent writes one
        ``serve.request`` per sample, the same audit as ``engine.stream``."""
        pairs, mjd = batch
        dataset = _ArrayDataset(pairs, mjd)

        def audit(directory, scorer):
            obs.start(directory, run_id="run-audit")
            try:
                list(scorer.stream(dataset, batch_size=6))
            finally:
                counters = obs.stop()["counters"]
            assert counters["serve.requests"] == len(pairs)
            return [
                (r["index"], r["request_id"], r["probability"])
                for r in obs.read_events(directory / EVENTS_FILE)
                if r["event"] == "serve.request"
            ]

        want = audit(tmp_path / "engine", engine)
        got = audit(tmp_path / "pool", shared_pool)
        assert len(got) == len(pairs)
        assert sorted(got) == sorted(want)
        assert len({request_id for _, request_id, _ in got}) == len(pairs)

    def test_stream_contains_chunk_failures(self, engine, batch, tmp_path):
        pairs, mjd = batch
        marked = pairs.copy()
        marked[3, 0, 0, 0, 0] = MARKER
        dataset = _ArrayDataset(marked, mjd)
        obs.start(tmp_path)
        try:
            with ScoringPool(
                engine=engine,
                config=PoolConfig(workers=2),
                worker_init=CrashWorkerOnMarker(MARKER, min_batch=1),
            ) as pool:
                got = list(pool.stream(dataset, batch_size=3))
        finally:
            obs.stop()
        assert len(got) == len(pairs)
        assert got[3].error is not None
        assert all(r.error is None for i, r in enumerate(got) if i != 3)
        # The failed placeholder carries no score, so it is not audited.
        audited = [
            r["index"] for r in obs.read_events(tmp_path / EVENTS_FILE)
            if r["event"] == "serve.request"
        ]
        assert sorted(audited) == [i for i in range(len(pairs)) if i != 3]

    def test_stream_counts_a_raising_chunk_like_the_engine(
        self, engine, batch, tmp_path
    ):
        """A chunk whose scoring raises is split: only the culprit comes
        back as a placeholder, counted once in ``serve.batch_failures``
        as the thread path does."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[3, 0, 0, 0, 0] = MARKER
        obs.start(tmp_path)
        try:
            with ScoringPool(
                engine=engine,
                config=PoolConfig(workers=2),
                worker_init=RaiseWorkerOnMarker(MARKER, _diverged_error),
            ) as pool:
                got = list(pool.stream(_ArrayDataset(marked, mjd), batch_size=3))
        finally:
            counters = obs.stop()["counters"]
        assert counters["serve.batch_failures"] == 1
        assert counters["serve.requests"] == len(pairs) - 1
        # Chunks are batch_size x workers = 6 samples; the first one
        # failed and was re-scored per sample.
        assert [r.error is not None for r in got] == [i == 3 for i in range(len(got))]


class TestPoolWedge:
    """Workers that are alive but silent: the gather's no-progress deadline."""

    def test_wedged_worker_is_terminated_and_healed(self, engine, batch):
        """A hung worker is killed at task_timeout_s and its shard re-scored."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[5, 0, 0, 0, 0] = MARKER
        want = engine.classify_arrays(marked, mjd)
        config = PoolConfig(workers=2, task_timeout_s=1.0)
        with ScoringPool(
            engine=engine,
            config=config,
            worker_init=WedgeWorkerOnMarker(MARKER, min_batch=2),
        ) as pool:
            started = time.monotonic()
            got = pool.classify_arrays(marked, mjd)
            elapsed = time.monotonic() - started
            stats = pool.stats()
        # Bounded: one wedge window plus respawn + per-sample re-score.
        assert elapsed < 30.0
        assert stats["wedges"] >= 1
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1
        assert [r.error for r in got] == [None] * len(got)
        assert_bit_exact(got, want)

    def test_repeat_wedge_offender_is_flagged(self, engine, batch):
        """A sample that wedges every worker becomes a failed placeholder."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[7, 0, 0, 0, 0] = MARKER
        config = PoolConfig(workers=2, task_timeout_s=0.5)
        with ScoringPool(
            engine=engine,
            config=config,
            worker_init=WedgeWorkerOnMarker(MARKER, min_batch=1),
        ) as pool:
            got = pool.classify_arrays(marked, mjd)
        assert len(got) == len(pairs)
        culprit = got[7]
        assert culprit.error is not None and "WorkerCrashError" in culprit.error
        assert all(r.error is None for i, r in enumerate(got) if i != 7)

    def test_close_never_deadlocks_behind_wedged_dispatch(self, engine, batch):
        """drain() must finish even while a dispatch is stuck on a wedge.

        The gather deadline here is far longer than the close timeout,
        so the dispatch thread genuinely holds the pool lock when close
        runs; close must tear down without it and the stuck dispatch
        must surface PoolBrokenError instead of respawning.
        """
        pairs, mjd = batch
        marked = pairs.copy()
        marked[:, 0, 0, 0, 0] = MARKER  # every shard wedges its worker
        pool = ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2, task_timeout_s=120.0),
            worker_init=WedgeWorkerOnMarker(MARKER, min_batch=1),
        )
        pool.start()
        pids = pool.pids()
        outcome = []

        def dispatch():
            try:
                pool.classify_arrays(marked, mjd)
                outcome.append(None)
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome.append(exc)

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        time.sleep(1.0)  # let both shards dispatch and wedge
        started = time.monotonic()
        pool.close(timeout_s=2.0)
        assert time.monotonic() - started < 15.0
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert outcome and isinstance(outcome[0], PoolBrokenError)
        assert_reaped(pids)  # the forced close leaves no worker process

    def test_respawn_budget_replenishes_after_healthy_period(
        self, engine, batch, monkeypatch
    ):
        """The budget bounds flapping, not lifetime crashes over weeks."""
        pairs, mjd = batch
        monkeypatch.setattr(pool_module, "RESPAWN_DELAYS_S", (0.01,))
        monkeypatch.setattr(pool_module, "RESPAWN_RESET_S", 0.2)
        with ScoringPool(engine=engine, config=PoolConfig(workers=2)) as pool:
            # Three isolated crashes, each fully healed, each separated
            # by a crash-free period longer than RESPAWN_RESET_S: every
            # one must respawn even though the budget alone (1 respawn)
            # would have broken the pool at the second.
            for _ in range(3):
                os.kill(pool.pids()[0], signal.SIGKILL)
                got = pool.classify_arrays(pairs, mjd)
                assert len(got) == len(pairs)
                time.sleep(0.35)
            assert pool.stats()["respawns"] == 3
            assert pool.stats()["broken"] is None


def _corrupt_weights_error():
    return CorruptArtifactError("weights.npz", "checksum mismatch (injected)")


def _diverged_error():
    return TrainingDiverged("loss went non-finite (injected)")


class _LockedError(RuntimeError):
    """An error that cannot pickle: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _unpicklable_error():
    return _LockedError("holds a lock (injected)")


class TestErrorTransport:
    """Worker exceptions re-raise with the same types as the in-process path."""

    def test_corrupt_artifact_error_round_trips(self, engine, batch):
        pairs, mjd = batch
        marked = pairs.copy()
        marked[3, 0, 0, 0, 0] = MARKER
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=RaiseWorkerOnMarker(MARKER, _corrupt_weights_error),
        ) as pool:
            with pytest.raises(CorruptArtifactError) as excinfo:
                pool.classify_arrays(marked, mjd)
        assert excinfo.value.path == "weights.npz"
        assert excinfo.value.reason == "checksum mismatch (injected)"

    def test_pickled_custom_error_round_trips(self, engine, batch):
        """Typed errors with their own fields survive the pickle transport."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[3, 0, 0, 0, 0] = MARKER
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=RaiseWorkerOnMarker(MARKER, _diverged_error),
        ) as pool:
            with pytest.raises(TrainingDiverged, match="non-finite"):
                pool.classify_arrays(marked, mjd)

    def test_unpicklable_error_falls_back_to_pool_error(self, engine, batch):
        """An error that does not pickle arrives as ``PoolError("Type: message")``."""
        pairs, mjd = batch
        marked = pairs.copy()
        marked[3, 0, 0, 0, 0] = MARKER
        with ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2),
            worker_init=RaiseWorkerOnMarker(MARKER, _unpicklable_error),
        ) as pool:
            with pytest.raises(pool_module.PoolError) as excinfo:
                pool.classify_arrays(marked, mjd)
        assert type(excinfo.value) is pool_module.PoolError
        assert str(excinfo.value) == "_LockedError: holds a lock (injected)"
