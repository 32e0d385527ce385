"""Serving daemon: round trips, admission, deadlines, watchdog, drain."""

import contextlib
import http.client
import json
import statistics
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import EVENTS_FILE, read_events
from repro.runtime import WedgeBatch
from repro.serve import DaemonConfig, PoolBrokenError, PoolConfig, ServingDaemon

from .helpers import (
    classify_body,
    http_get,
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
    return make_serve_sample(engine, seed=1)


def _post_async(port, body, out, key, timeout=30.0):
    """Fire one request from a thread, recording its (status, doc)."""

    def run():
        out[key] = post_classify(port, body, timeout=timeout)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _wait_for(condition, timeout_s=10.0):
    """Poll ``condition()`` to True within the timeout (no unbounded spins)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within the timeout")


class TestDaemonConfig:
    def test_defaults_valid(self):
        config = DaemonConfig()
        assert config.queue_depth == 64 and config.batch_max_size == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_max_size": 0},
            {"batch_deadline_ms": -1.0},
            {"queue_depth": 0},
            {"request_deadline_ms": 0.0},
            {"client_body_deadline_s": 0.0},
            {"wedge_timeout_s": 0.0},
            {"batch_deadline_ms": float("nan")},
            {"request_deadline_ms": float("nan")},
            {"client_body_deadline_s": float("nan")},
            {"wedge_timeout_s": float("nan")},
            {"reload_poll_s": float("nan")},
            {"scoring_workers": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DaemonConfig(**kwargs)


class TestRoundTrip:
    def test_keep_alive_responses_skip_the_delayed_ack(self, engine, sample):
        """Headers and body leave as two writes; without TCP_NODELAY the
        body waits for the client's delayed ACK (up to 40 ms)."""
        pairs, mjd = sample
        body = classify_body(pairs, mjd)
        headers = {"Content-Type": "application/json"}
        latencies = []
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
            try:
                for _ in range(10):
                    start = time.perf_counter()
                    conn.request("POST", "/classify", body=body, headers=headers)
                    response = conn.getresponse()
                    response.read()
                    latencies.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
        assert statistics.median(latencies[1:]) < 0.035, latencies

    def test_single_request_parity_and_introspection(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=5.0)) as daemon:
            status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200
            assert doc["request_id"] == "serve/r0"
            reference = engine.classify_arrays(pairs[None], mjd[None])[0]
            assert doc["result"]["probability"] == round(reference.probability, 6)
            assert doc["result"]["confidence"] == round(reference.confidence, 4)
            assert doc["result"]["usable_bands"] == reference.usable_bands

            status, body = http_get(daemon.port, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["state"] == "ready" and health["live"] and health["ready"]

            status, body = http_get(daemon.port, "/metrics")
            assert status == 200
            text = body.decode()
            assert "daemon_admitted 1" in text
            assert "daemon_responses 1" in text
            # conv workspace-cache gauges ride along on every scrape
            assert "nn_workspace_hits" in text
            assert "nn_workspace_entries" in text

    def test_unknown_routes_are_typed_404(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=5.0)) as daemon:
            status, body = http_get(daemon.port, "/nope")
            assert status == 404 and b"not_found" in body
            status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200  # the 404 left the daemon serving

    def test_request_ids_are_deterministic(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            ids = []
            for _ in range(3):
                status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
                assert status == 200
                ids.append(doc["request_id"])
            assert ids == ["serve/r0", "serve/r1", "serve/r2"]


class TestMicroBatching:
    def test_queued_requests_coalesce_into_one_batch(self, engine, sample):
        """5 requests queued behind a wedge score as a single micro-batch."""
        pairs, mjd = sample
        wedge = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=5.0, batch_max_size=16)
        body = classify_body(pairs, mjd, deadline_ms=30000)
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            results: dict = {}
            threads = [_post_async(daemon.port, body, results, "head")]
            assert wedge.wedged.wait(10.0)
            for k in range(5):
                threads.append(_post_async(daemon.port, body, results, k))
            _wait_for(lambda: daemon._batcher.waiting() == 5)
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(status == 200 for status, _ in results.values())
            ids = {doc["request_id"] for _, doc in results.values()}
            assert len(ids) == 6  # exactly-once: six distinct admissions
            # head alone, then the 5 queued requests in one coalesced batch
            assert int(daemon.metrics.counter("daemon.batches").value) == 2
            assert int(daemon.metrics.counter("daemon.responses").value) == 6


class TestAdmissionControl:
    def test_full_queue_sheds_with_retry_after(self, engine, sample):
        pairs, mjd = sample
        wedge = WedgeBatch({0})
        config = DaemonConfig(queue_depth=2, batch_deadline_ms=5.0)
        body = classify_body(pairs, mjd, deadline_ms=30000)
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            results: dict = {}
            threads = [_post_async(daemon.port, body, results, "head")]
            assert wedge.wedged.wait(10.0)
            for k in range(2):  # fill the queue to its depth cap
                threads.append(_post_async(daemon.port, body, results, k))
            _wait_for(lambda: daemon._batcher.waiting() == 2)
            # Queue is full: the next two must be shed immediately.
            for k in range(2):
                status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
                assert status == 429
                assert doc["error"]["type"] == "shed"
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(status == 200 for status, _ in results.values())
            assert int(daemon.metrics.counter("daemon.shed").value) == 2
            assert int(daemon.metrics.counter("daemon.admitted").value) == 3

    def test_retry_after_header_present(self, engine, sample):
        import urllib.error
        import urllib.request

        pairs, mjd = sample
        wedge = WedgeBatch({0})
        config = DaemonConfig(queue_depth=1, batch_deadline_ms=5.0)
        body = classify_body(pairs, mjd, deadline_ms=30000)
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            results: dict = {}
            threads = [_post_async(daemon.port, body, results, "head")]
            assert wedge.wedged.wait(10.0)
            threads.append(_post_async(daemon.port, body, results, "fill"))
            _wait_for(lambda: daemon._batcher.waiting() == 1)
            request = urllib.request.Request(
                f"http://127.0.0.1:{daemon.port}/classify",
                data=classify_body(pairs, mjd),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 429
            # Derived from the observed drain rate; always within the
            # clamp window, and exactly the 1s floor before any batch
            # has been scored (the head batch is still wedged here).
            assert 1 <= int(excinfo.value.headers["Retry-After"]) <= 30
            excinfo.value.close()
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)


class TestRetryAfterDerivation:
    """Unit tests of the drain-rate EWMA behind the 429 Retry-After."""

    def _daemon(self, engine):
        return ServingDaemon(engine, DaemonConfig(batch_deadline_ms=5.0))

    def test_floor_before_first_observation(self, engine):
        daemon = self._daemon(engine)
        assert daemon._retry_after() == "1"

    def test_backlog_over_rate(self, engine, monkeypatch):
        daemon = self._daemon(engine)
        daemon._note_drained(4, 2.0)  # 2 requests/s
        monkeypatch.setattr(daemon._batcher, "waiting", lambda: 10)
        assert daemon._retry_after() == "5"  # ceil(10 / 2)

    def test_clamped_to_30s_for_slow_drain(self, engine, monkeypatch):
        daemon = self._daemon(engine)
        daemon._note_drained(1, 100.0)  # 0.01 requests/s
        monkeypatch.setattr(daemon._batcher, "waiting", lambda: 8)
        assert daemon._retry_after() == "30"

    def test_fast_drain_floors_at_1s(self, engine, monkeypatch):
        daemon = self._daemon(engine)
        daemon._note_drained(64, 0.01)
        monkeypatch.setattr(daemon._batcher, "waiting", lambda: 1)
        assert daemon._retry_after() == "1"

    def test_ewma_tracks_recent_batches(self, engine):
        daemon = self._daemon(engine)
        daemon._note_drained(10, 1.0)  # 10 requests/s
        assert daemon._drain_rate == pytest.approx(10.0)
        daemon._note_drained(2, 1.0)  # slower batch folds in at alpha=0.3
        assert daemon._drain_rate == pytest.approx(0.7 * 10.0 + 0.3 * 2.0)
        assert daemon.metrics.gauge("daemon.drain_rate_rps").value == pytest.approx(
            round(daemon._drain_rate, 3)
        )

    def test_empty_group_ignored(self, engine):
        daemon = self._daemon(engine)
        daemon._note_drained(0, 1.0)
        assert daemon._drain_rate is None


class TestDeadlines:
    def test_deadline_expires_to_typed_timeout(self, engine, sample):
        pairs, mjd = sample
        wedge = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=5.0, wedge_timeout_s=60.0)
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            results: dict = {}
            head = _post_async(
                daemon.port, classify_body(pairs, mjd, deadline_ms=30000), results, "head"
            )
            assert wedge.wedged.wait(10.0)
            status, doc = post_classify(
                daemon.port, classify_body(pairs, mjd, deadline_ms=150)
            )
            assert status == 504
            assert doc["error"]["type"] == "timeout"
            assert doc["request_id"] == "serve/r1"
            wedge.release()
            head.join(timeout=30.0)
            assert results["head"][0] == 200
            assert int(daemon.metrics.counter("daemon.timeouts").value) == 1
            # The expired request is skipped by the worker, never re-answered.
            assert int(daemon.metrics.counter("daemon.responses").value) == 1

    def test_out_of_range_deadline_is_bad_request(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            status, doc = post_classify(
                daemon.port, classify_body(pairs, mjd, deadline_ms=0.5)
            )
            assert status == 400 and doc["error"]["type"] == "bad_request"


class TestBadRequests:
    def test_shape_errors_never_admitted(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            bad = [
                classify_body(pairs[0], mjd),  # rank-3 pairs
                classify_body(pairs, mjd[:2]),  # mjd length mismatch
                classify_body(pairs[:, :, :20, :20], mjd),  # stamp < input_size
            ]
            for body in bad:
                status, doc = post_classify(daemon.port, body)
                assert status == 400
                assert doc["error"]["type"] == "bad_request"
            assert int(daemon.metrics.counter("daemon.admitted").value) == 0
            assert int(daemon.metrics.counter("daemon.bad_requests").value) == 3
            # A clean request still sails through afterwards.
            status, _ = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200


@contextlib.contextmanager
def _session(directory):
    """A telemetry session with run id ``probe`` around the block."""
    obs.start(directory, run_id="probe")
    try:
        yield
    finally:
        obs.stop()


def _session_events(directory, name):
    return [r for r in read_events(directory / EVENTS_FILE) if r["event"] == name]


class TestStrictPoisonIsolation:
    def test_strict_poison_isolated_from_batch_mates(self, engine, tmp_path):
        """One strict-degraded sample 422s; its clean batch-mate still
        scores; the refusal is recorded once, under the answered id."""
        clean_pairs, mjd = make_serve_sample(engine, seed=2)
        poison_pairs = clean_pairs.copy()
        poison_pairs[0] = np.nan  # visit 0 unrecoverable -> strict refusal
        wedge = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=150.0, wedge_timeout_s=60.0)
        with _session(tmp_path / "t"), running_daemon(
            engine, config, fault_hook=wedge
        ) as daemon:
            results: dict = {}
            threads = [
                _post_async(
                    daemon.port,
                    classify_body(clean_pairs, mjd, deadline_ms=30000),
                    results,
                    "head",
                )
            ]
            assert wedge.wedged.wait(10.0)
            threads.append(
                _post_async(
                    daemon.port,
                    classify_body(poison_pairs, mjd, strict=True, deadline_ms=30000),
                    results,
                    "poison",
                )
            )
            _wait_for(lambda: daemon._batcher.waiting() == 1)
            threads.append(
                _post_async(
                    daemon.port,
                    classify_body(clean_pairs, mjd, strict=True, deadline_ms=30000),
                    results,
                    "clean",
                )
            )
            _wait_for(lambda: daemon._batcher.waiting() == 2)
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
            status, doc = results["poison"]
            assert status == 422 and doc["error"]["type"] == "degraded"
            assert doc["request_id"] == "probe/r1"
            status, doc = results["clean"]
            assert status == 200
            solo = engine.classify_arrays(
                clean_pairs[None], mjd[None], strict=True
            )[0]
            assert doc["result"]["probability"] == round(solo.probability, 6)
            assert int(daemon.metrics.counter("daemon.poison_batches").value) == 1
        rejected = _session_events(tmp_path / "t", "serve.rejected")
        assert [r["request_id"] for r in rejected] == ["probe/r1"]


class TestResponseIdentity:
    def test_each_request_answered_under_its_own_index(self, engine, tmp_path):
        """A strict request between two plain ones splits the micro-batch
        into runs of consecutive requests: every response, and every
        audit record, belongs to the request that asked."""
        pairs, mjd = make_serve_sample(engine, seed=2)
        wedge = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=150.0, wedge_timeout_s=60.0)
        with _session(tmp_path / "t"), running_daemon(
            engine, config, fault_hook=wedge
        ) as daemon:
            results: dict = {}
            threads = [
                _post_async(daemon.port, classify_body(pairs, mjd, deadline_ms=30000),
                            results, 0)
            ]
            assert wedge.wedged.wait(10.0)
            for k, strict in ((1, False), (2, True), (3, False)):
                threads.append(_post_async(
                    daemon.port,
                    classify_body(pairs, mjd, strict=strict, deadline_ms=30000),
                    results, k,
                ))
                # Admission order is request order: r1, r2, r3.
                _wait_for(lambda k=k: daemon._batcher.waiting() == k)
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
        answered = {}
        for k in range(4):
            status, doc = results[k]
            assert status == 200, doc
            assert doc["request_id"] == f"probe/r{k}"
            assert doc["result"]["index"] == k
            answered[doc["request_id"]] = doc["result"]["probability"]
        audited = _session_events(tmp_path / "t", "serve.request")
        assert sorted(r["request_id"] for r in audited) == sorted(answered)
        for record in audited:
            assert record["probability"] == answered[record["request_id"]]


class _BrokenPool:
    """Injected scoring pool whose respawn budget is already spent."""

    started = True

    def __init__(self):
        self.config = PoolConfig(workers=2)
        self.dispatches = 0

    def classify_arrays(self, pairs, mjd, strict=False, start_index=0):
        self.dispatches += 1
        raise PoolBrokenError("respawn budget exhausted (injected)")

    def close(self):
        pass


class TestBrokenPool:
    def test_broken_pool_is_not_a_poison_batch(self, engine, sample):
        """A broken pool fails a whole group at once: one 500 per request,
        no per-sample re-dispatch into the dead pool, drain with exit 4."""
        pairs, mjd = sample
        pool = _BrokenPool()
        wedge = WedgeBatch({0})
        config = DaemonConfig(batch_deadline_ms=5.0, wedge_timeout_s=60.0)
        daemon = ServingDaemon(engine, config, fault_hook=wedge, pool=pool)
        daemon.start()
        body = classify_body(pairs, mjd, deadline_ms=30000)
        results: dict = {}
        try:
            threads = [_post_async(daemon.port, body, results, "head")]
            assert wedge.wedged.wait(10.0)
            for key in ("a", "b"):
                threads.append(_post_async(daemon.port, body, results, key))
            _wait_for(lambda: daemon._batcher.waiting() == 2)
            wedge.release()
            for thread in threads:
                thread.join(timeout=30.0)
            assert daemon.wait() == 4
        finally:
            wedge.release()
            daemon.drain(reason="test-teardown")
            daemon.wait()
        # Batch 0 = {head}, batch 1 = {a, b}: two dispatches, no split.
        assert pool.dispatches == 2
        assert int(daemon.metrics.counter("daemon.poison_batches").value) == 0
        statuses = [status for status, _ in results.values()]
        assert statuses == [500, 500, 500]
        for _, doc in results.values():
            assert "PoolBrokenError" in doc["error"]["message"]
        admitted = int(daemon.metrics.counter("daemon.admitted").value)
        responses = int(daemon.metrics.counter("daemon.responses").value)
        timeouts = int(daemon.metrics.counter("daemon.timeouts").value)
        errors = int(daemon.metrics.counter("daemon.request_errors").value)
        assert admitted == len(results) == 3
        assert responses + timeouts + errors == admitted
        assert errors == statuses.count(500)


class TestWatchdog:
    def test_wedged_worker_replaced_without_dropping_accept_loop(
        self, engine, sample
    ):
        pairs, mjd = sample
        wedge = WedgeBatch({0})
        config = DaemonConfig(
            batch_deadline_ms=2.0,
            wedge_timeout_s=0.4,
        )
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            try:
                status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
                assert status == 504
                assert doc["error"]["type"] == "timeout"
                assert "wedged" in doc["error"]["message"]
                # The replacement worker serves new traffic on the same port.
                status, doc = post_classify(daemon.port, classify_body(pairs, mjd))
                assert status == 200
                assert int(
                    daemon.metrics.counter("daemon.worker_restarts").value
                ) == 1
                status, body = http_get(daemon.port, "/healthz")
                assert status == 200
                assert json.loads(body)["worker_generation"] == 1
            finally:
                wedge.release()

    def test_restart_budget_exhaustion_drains_with_exit_4(self, engine, sample):
        """Three wedges spend RESTART_DELAYS_S: two restarts, then exit 4."""
        pairs, mjd = sample
        wedge = WedgeBatch({0, 1, 2})
        config = DaemonConfig(batch_deadline_ms=2.0, wedge_timeout_s=0.3)
        with running_daemon(engine, config, fault_hook=wedge) as daemon:
            try:
                for _ in range(3):
                    status, doc = post_classify(
                        daemon.port, classify_body(pairs, mjd)
                    )
                    assert status == 504
                assert daemon.wait() == 4
                assert int(
                    daemon.metrics.counter("daemon.worker_restarts").value
                ) == 2
            finally:
                wedge.release()


class TestGracefulDrain:
    def test_drain_is_idempotent_and_refuses_new_traffic(self, engine, sample):
        pairs, mjd = sample
        with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
            status, _ = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200
            assert daemon.drain(reason="test") == 0
            assert daemon.drain(reason="again") == 0  # idempotent
            # The accept loop is already down; the in-process contract is
            # what late handler threads would see.
            status, payload = daemon.health()
            assert status == 503 and payload["state"] == "draining"
            status, payload, _ = daemon.handle_classify(classify_body(pairs, mjd))
            assert status == 503
            assert payload["error"]["type"] == "draining"
            assert daemon.wait() == 0
            assert "daemon_draining 1" in daemon.prometheus()
