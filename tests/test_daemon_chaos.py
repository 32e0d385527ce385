"""Daemon chaos suite: slow clients, malformed bodies, poison batches, bursts.

The invariant under every scenario is the one the daemon promises:
*every admitted request receives exactly one typed response* — none
dropped, none double-scored — and clean traffic scores bit-identically
to the batch ``repro classify`` path no matter how requests were
coalesced into micro-batches.  All injectors are deterministic
(:mod:`repro.runtime.faults`): no wall-clock coin flips decide what the
daemon experiences, only *when* it experiences it.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    BurstSchedule,
    FailBatch,
    InjectedFault,
    WedgeBatch,
    malformed_bodies,
    send_slow_request,
)
from repro.runtime.faults import WedgeWorkerOnMarker
from repro.serve import DaemonConfig, PoolConfig, ScoringPool, ServingDaemon

from .helpers import (
    classify_body,
    make_serve_engine,
    make_serve_sample,
    post_classify,
    running_daemon,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def engine():
    return make_serve_engine(seed=0)


@pytest.fixture()
def sample(engine):
    return make_serve_sample(engine, seed=3)


class TestSlowClients:
    def test_dribbling_body_gets_typed_408(self, engine, sample):
        pairs, mjd = sample
        body = classify_body(pairs, mjd)
        config = DaemonConfig(batch_deadline_ms=2.0, client_body_deadline_s=0.3)
        with running_daemon(engine, config) as daemon:
            # ~1.6 KB body at 64 B per 50 ms needs >1 s; deadline is 0.3 s.
            status, raw = send_slow_request(
                "127.0.0.1", daemon.port, body[:2048], chunk_size=64, delay_s=0.05
            )
            assert status == 408
            assert json.loads(raw)["error"]["type"] == "slow_client"
            assert int(daemon.metrics.counter("daemon.slow_clients").value) == 1
            # The wasted handler thread is gone; clean traffic is unaffected.
            status, doc = post_classify(daemon.port, body)
            assert status == 200

    def test_slow_but_within_deadline_is_served(self, engine, sample):
        pairs, mjd = sample
        body = classify_body(pairs, mjd)
        config = DaemonConfig(batch_deadline_ms=2.0, client_body_deadline_s=30.0)
        with running_daemon(engine, config) as daemon:
            status, raw = send_slow_request(
                "127.0.0.1", daemon.port, body,
                chunk_size=len(body) // 4 + 1, delay_s=0.05,
            )
            assert status == 200
            assert json.loads(raw)["result"]["probability"] is not None


class TestMalformedBodies:
    def test_every_malformed_body_is_typed_400(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            for name, body in malformed_bodies():
                status, doc = post_classify(daemon.port, body)
                assert status == 400, f"payload {name!r} -> {status}"
                assert doc["error"]["type"] == "bad_request", name
            assert int(daemon.metrics.counter("daemon.admitted").value) == 0
            status, _ = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200  # still serving after the whole zoo

    def test_missing_content_length_is_411(self, engine):
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as conn:
                conn.sendall(
                    b"POST /classify HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Connection: close\r\n\r\n"
                )
                response = b""
                while chunk := conn.recv(65536):
                    response += chunk
            assert b"411" in response.split(b"\r\n", 1)[0]
            assert b"length_required" in response

    def test_oversized_declaration_is_413_without_reading(self, engine, sample):
        pairs, mjd = sample
        config = DaemonConfig(batch_deadline_ms=2.0, max_body_bytes=1024)
        with running_daemon(engine, config) as daemon:
            status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 413
            assert doc["error"]["type"] == "too_large"


class TestMidBatchException:
    def test_injected_fault_is_isolated_to_nobody(self, engine, sample):
        """A hook fault on a shared batch: both batch-mates still score."""
        pairs, mjd = sample
        wedge = WedgeBatch({0})
        fail = FailBatch({1})

        def hook(batch_index, n_samples):
            wedge(batch_index, n_samples)
            fail(batch_index, n_samples)

        config = DaemonConfig(batch_deadline_ms=5.0)
        body = classify_body(pairs, mjd, deadline_ms=30000)
        with running_daemon(engine, config, fault_hook=hook) as daemon:
            results: dict = {}

            def post(key):
                results[key] = post_classify(daemon.port, body)

            threads = [threading.Thread(target=post, args=("head",), daemon=True)]
            threads[0].start()
            assert wedge.wedged.wait(10.0)
            for key in ("a", "b"):
                thread = threading.Thread(target=post, args=(key,), daemon=True)
                thread.start()
                threads.append(thread)
            deadline = time.monotonic() + 10.0
            while daemon._batcher.waiting() < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
            # Batch 1 = {a, b} blew up; re-scored alone as batches 2 and 3.
            assert all(status == 200 for status, _ in results.values())
            assert int(daemon.metrics.counter("daemon.poison_batches").value) == 1
            assert int(daemon.metrics.counter("daemon.responses").value) == 3
            solo = engine.classify_arrays(pairs[None], mjd[None])[0]
            for key in ("a", "b"):
                assert results[key][1]["result"]["probability"] == round(
                    solo.probability, 6
                )

    def test_unsplittable_fault_is_typed_500(self, engine, sample):
        pairs, mjd = sample
        config = DaemonConfig(batch_deadline_ms=2.0)
        with running_daemon(
            engine, config, fault_hook=FailBatch("all", exc=InjectedFault)
        ) as daemon:
            status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 500
            assert doc["error"]["type"] == "internal"
            assert "InjectedFault" in doc["error"]["message"]
            assert int(daemon.metrics.counter("daemon.request_errors").value) == 1


class TestBurstOverload:
    def test_every_request_gets_exactly_one_typed_response(self, engine, sample):
        """Open-loop burst at 5x the queue's comfort: shed, never drop."""
        pairs, mjd = sample
        body = classify_body(pairs, mjd, deadline_ms=30000)
        schedule = BurstSchedule(qps=100.0, duration_s=0.5, burst_factor=5.0)
        offsets = schedule.offsets()
        assert len(offsets) == 50
        config = DaemonConfig(
            queue_depth=8, batch_max_size=4, batch_deadline_ms=5.0,
        )
        with running_daemon(engine, config) as daemon:
            results: list = [None] * len(offsets)
            start = time.monotonic()

            def fire(k, offset):
                delay = start + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                results[k] = post_classify(daemon.port, body)

            threads = [
                threading.Thread(target=fire, args=(k, offset), daemon=True)
                for k, offset in enumerate(offsets)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)

            # Exactly one typed response per request, no exceptions.
            assert all(result is not None for result in results)
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429, 504}
            assert statuses.count(200) >= 1

            # Conservation: admitted = scored + timed out; shed is the rest.
            admitted = int(daemon.metrics.counter("daemon.admitted").value)
            responses = int(daemon.metrics.counter("daemon.responses").value)
            timeouts = int(daemon.metrics.counter("daemon.timeouts").value)
            shed = int(daemon.metrics.counter("daemon.shed").value)
            assert admitted + shed == len(offsets)
            assert responses + timeouts == admitted
            assert statuses.count(200) == responses
            assert statuses.count(429) == shed
            assert statuses.count(504) == timeouts


class TestPoolWorkerKill:
    def test_sigkill_mid_burst_conserves_every_request(self, engine, sample):
        """SIGKILL a scoring worker *process* mid-batch under burst load.

        The multi-process analogue of the poison-batch tests: a scoring
        worker dies with requests in flight, the pool detects the dead
        sentinel, respawns the worker under its respawn budget and
        re-scores the culprit group per sample — so conservation
        (``sent == 200 + 429 + 504 + 5xx``) must hold exactly as it
        does for a single-process daemon, and the daemon must still
        drain cleanly afterwards.
        """
        import os
        import signal as _signal

        pairs, mjd = sample
        body = classify_body(pairs, mjd, deadline_ms=30000)
        offsets = BurstSchedule(qps=60.0, duration_s=1.0, burst_factor=3.0).offsets()
        config = DaemonConfig(
            queue_depth=8, batch_max_size=4, batch_deadline_ms=5.0,
            scoring_workers=2,
        )
        with running_daemon(engine, config) as daemon:
            pool = daemon._pool
            assert pool is not None and len(pool.pids()) == 2
            results: list = [None] * len(offsets)
            start = time.monotonic()

            def fire(k, offset):
                delay = start + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                results[k] = post_classify(daemon.port, body)

            threads = [
                threading.Thread(target=fire, args=(k, offset), daemon=True)
                for k, offset in enumerate(offsets)
            ]
            for thread in threads:
                thread.start()
            # Kill a worker once traffic is genuinely flowing through it.
            deadline = time.monotonic() + 10.0
            while pool.stats()["batches"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            os.kill(pool.pids()[0], _signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=60.0)

            # Exactly one typed response per request.
            assert all(result is not None for result in results)
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429, 504, 500}
            assert statuses.count(200) >= 1

            admitted = int(daemon.metrics.counter("daemon.admitted").value)
            responses = int(daemon.metrics.counter("daemon.responses").value)
            timeouts = int(daemon.metrics.counter("daemon.timeouts").value)
            shed = int(daemon.metrics.counter("daemon.shed").value)
            errors = int(daemon.metrics.counter("daemon.request_errors").value)
            assert admitted + shed == len(offsets)
            assert responses + timeouts + errors == admitted
            assert statuses.count(200) == responses
            assert statuses.count(429) == shed
            assert statuses.count(504) == timeouts
            assert statuses.count(500) == errors

            # The pool healed within its respawn budget: a full
            # complement of live workers, crash + respawn accounted.
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["respawns"] >= 1
            assert stats["broken"] is None
            assert len(pool.pids()) == 2

            # Clean traffic still scores wire-identically after healing.
            status, doc = post_classify(daemon.port, body)
            assert status == 200
            solo = engine.classify_arrays(pairs[None], mjd[None])[0]
            assert doc["result"]["probability"] == round(solo.probability, 6)


class TestPoolWedge:
    """With a pool, the pool owns the wedge deadline: no watchdog runs, so
    a wedged worker costs nobody but the sample that wedged it."""

    def test_stopped_worker_is_healed_without_a_504(self, engine, sample):
        """A daemon-built pool gathers at ``wedge_timeout_s``; a SIGSTOPped
        worker is terminated and its shard re-scored, and no scoring
        thread is restarted."""
        import os
        import signal as _signal

        pairs, mjd = sample
        body = classify_body(pairs, mjd, deadline_ms=30000)
        config = DaemonConfig(
            batch_max_size=4, batch_deadline_ms=5.0, wedge_timeout_s=1.0,
            scoring_workers=2,
        )
        with running_daemon(engine, config) as daemon:
            pool = daemon._pool
            stopped = pool.pids()[0]
            os.kill(stopped, _signal.SIGSTOP)
            try:
                results: list = [None] * 6

                def fire(k):
                    results[k] = post_classify(daemon.port, body)

                threads = [
                    threading.Thread(target=fire, args=(k,), daemon=True)
                    for k in range(len(results))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                try:
                    os.kill(stopped, _signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert [status for status, _ in results] == [200] * len(results)
            solo = engine.classify_arrays(pairs[None], mjd[None])[0]
            for _, doc in results:
                assert doc["result"]["probability"] == round(solo.probability, 6)
            assert int(daemon.metrics.counter("daemon.worker_restarts").value) == 0
            assert int(daemon.metrics.counter("daemon.timeouts").value) == 0
            assert pool.stats()["wedges"] >= 1
            status, payload = daemon.health()
            assert status == 200 and payload["state"] == "ready"
            # The one deadline: the pool's, at the daemon's wedge horizon.
            assert pool.config.task_timeout_s == config.wedge_timeout_s
            assert daemon._watchdog is None

    def test_wedging_sample_fails_alone(self, engine, sample):
        """An injected pool whose workers hang on one sample: its two
        batch-mates get their clean scores, the culprit a crash placeholder."""
        pairs, mjd = sample
        marker = 12345.0
        culprit = pairs.copy()
        culprit[0, 0, 0, 0] = marker
        pool = ScoringPool(
            engine=engine,
            config=PoolConfig(workers=2, task_timeout_s=1.0),
            worker_init=WedgeWorkerOnMarker(marker, min_batch=1),
        )
        hold = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=5.0, wedge_timeout_s=1.0)
        daemon = ServingDaemon(engine, config, fault_hook=hold, pool=pool)
        daemon.start()
        results: dict = {}
        bodies = {
            "head": classify_body(pairs, mjd, deadline_ms=30000),
            "culprit": classify_body(culprit, mjd, deadline_ms=30000),
            "a": classify_body(pairs, mjd, deadline_ms=30000),
            "b": classify_body(pairs, mjd, deadline_ms=30000),
        }

        def post(key):
            results[key] = post_classify(daemon.port, bodies[key])

        try:
            threads = [threading.Thread(target=post, args=("head",), daemon=True)]
            threads[0].start()
            # Hold batch 0 so the culprit and its mates queue into batch 1.
            assert hold.wedged.wait(10.0)
            for key in ("culprit", "a", "b"):
                threads.append(threading.Thread(target=post, args=(key,), daemon=True))
                threads[-1].start()
            deadline = time.monotonic() + 10.0
            while daemon._batcher.waiting() < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            hold.release()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            solo = engine.classify_arrays(pairs[None], mjd[None])[0]
            for key in ("head", "a", "b"):
                status, doc = results[key]
                assert status == 200
                assert "error" not in doc["result"]
                assert doc["result"]["probability"] == round(solo.probability, 6)
            status, doc = results["culprit"]
            assert status == 200
            assert "WorkerCrashError" in doc["result"]["error"]
            assert int(daemon.metrics.counter("daemon.worker_restarts").value) == 0
            assert pool.stats()["wedges"] >= 1
            assert daemon._watchdog is None
        finally:
            hold.release()
            daemon.drain(reason="test-teardown")
        assert daemon.wait() == 0


class TestCleanTrafficParity:
    def test_daemon_scores_bit_identical_to_batch_classify(self, engine):
        """Concurrent daemon traffic == classify_arrays, bit for bit.

        The daemon folds these requests into arbitrary micro-batches
        depending on thread timing; the scored probabilities must not
        care.  ``repro classify`` streams the same samples through
        ``classify_arrays`` — equality here is the CLI-parity contract.
        """
        samples = [make_serve_sample(engine, seed=100 + k) for k in range(10)]
        pairs_batch = np.stack([pairs for pairs, _ in samples])
        mjd_batch = np.stack([mjd for _, mjd in samples])
        reference = engine.classify_arrays(pairs_batch, mjd_batch)

        config = DaemonConfig(batch_max_size=4, batch_deadline_ms=20.0)
        with running_daemon(engine, config) as daemon:
            results: list = [None] * len(samples)

            def fire(k):
                pairs, mjd = samples[k]
                results[k] = post_classify(
                    daemon.port, classify_body(pairs, mjd, deadline_ms=30000)
                )

            threads = [
                threading.Thread(target=fire, args=(k,), daemon=True)
                for k in range(len(samples))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)

        for k, (status, doc) in enumerate(results):
            assert status == 200
            expected = reference[k].to_dict()
            got = doc["result"]
            # The classification outputs are bit-identical regardless of
            # how the daemon coalesced the micro-batches.
            assert got["probability"] == expected["probability"]
            assert got["confidence"] == expected["confidence"]
            assert got["usable_bands"] == expected["usable_bands"]
            assert got["degraded"] == expected["degraded"]
            assert got["flux_feature"] == expected["flux_feature"]
