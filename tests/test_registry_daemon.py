"""Registry-backed serving: hot reload, automatic rollback, promote gate.

The deploy-loop chaos suite.  Every daemon test drives a real in-process
:class:`ServingDaemon` loaded *from* a :class:`ModelRegistry` (the
``repro serve --registry`` path) and mutates the registry out-of-band,
exactly as an operator's ``repro models`` invocations would.  The
promote gate (``repro models promote vN --gate DATASET``), which checks
a candidate before any daemon serves it, is tested here too.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import EXIT_BAD_INPUT, main
from repro.obs import EVENTS_FILE, read_events
from repro.obs.drift import MIN_SAMPLES, DriftBaseline
from repro.registry import (
    DIVERGENCE_BUDGET,
    GATE_MIN_SAMPLES,
    GuardConfig,
    ModelRegistry,
    RegistryError,
)
from repro.runtime import BurstSchedule, ShiftScores
from repro.runtime.faults import WedgeWorkerOnMarker
from repro.serve import InferenceEngine, PoolConfig, ScoringPool, ServingDaemon
from repro.serve.daemon import DaemonConfig

from .helpers import (
    classify_body,
    http_get,
    make_serve_engine,
    make_serve_sample,
    post_classify,
    running_registry_daemon,
    save_gate_dataset,
    save_model_variant,
)

pytestmark = pytest.mark.registry


def _wait_for(predicate, timeout_s=10.0, interval_s=0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    pytest.fail(f"condition not reached within {timeout_s}s")


def _build_model_dir(directory, seed=0, baseline_scores=None):
    """Save a tiny engine (optionally with a committed drift baseline)."""
    engine = make_serve_engine(seed=seed)
    if baseline_scores is not None:
        engine.drift_baseline = DriftBaseline.from_samples(
            np.asarray(baseline_scores, dtype=float)
        )
    engine.save(str(directory))
    return engine


def _make_two_version_registry(directory):
    """v1 promoted to production, v2 registered (same weights)."""
    model = directory / "model"
    _build_model_dir(model, seed=0)
    registry = ModelRegistry(directory / "registry")
    registry.promote(registry.register(model))
    registry.register(model)
    return registry


@pytest.fixture()
def two_version_registry(tmp_path):
    return _make_two_version_registry(tmp_path)


def _record_deploy_writes(registry, calls):
    """Wrap the registry's ``rollback`` so each call appends
    ``("rollback", calling thread name)`` to ``calls``."""
    method = registry.rollback

    def recorded(*args, **kwargs):
        calls.append(("rollback", threading.current_thread().name))
        return method(*args, **kwargs)

    registry.rollback = recorded


def _healthz(port):
    status, raw = http_get(port, "/healthz")
    assert status == 200
    return json.loads(raw)


def _gate_promote(registry, version, dataset, *extra):
    """``repro models promote VERSION --gate DATASET``; returns
    ``(exit code, registry.json bytes before, bytes after)``."""
    with open(registry.state_path, "rb") as handle:
        before = handle.read()
    code = main(["models", "promote", version, "--registry", registry.root,
                 "--gate", str(dataset), *extra])
    with open(registry.state_path, "rb") as handle:
        return code, before, handle.read()


def _poisoned_promote_drill(tmp_path, watch=None):
    """The acceptance-criteria chaos drill, end to end.

    Under sustained traffic, promoting a candidate whose scores are
    diverted (``ShiftScores`` via the reload hook) must: keep every
    in-flight request answered (zero drops), trip the drift guard,
    roll production back to the last-known-good version, quarantine
    the bad version in ``registry.json`` and leave a
    ``registry.rolled_back`` audit event.
    """
    # Commit a drift baseline built from the model's own score on the
    # exact sample the test sends, so v1 never drifts and the
    # poisoned v2 (+0.4 on every score) immediately does.
    probe = make_serve_engine(seed=0)
    pairs, mjd = make_serve_sample(probe, seed=7)
    clean_score = probe.classify_arrays(pairs[None], mjd[None])[0].probability
    delta = 0.5 if clean_score < 0.5 else -0.5
    model = tmp_path / "model"
    _build_model_dir(model, seed=0, baseline_scores=[clean_score] * 64)
    registry = ModelRegistry(tmp_path / "registry")
    registry.promote(registry.register(model, note="good"))
    registry.register(model, note="poisoned retrain")
    if watch is not None:
        watch(registry)

    def poison_v2(engine, version):
        if version == "v2":
            engine.score_hook = ShiftScores(delta)

    guard = GuardConfig(sustained_checks=2)
    config = DaemonConfig(reload_poll_s=0.05, batch_deadline_ms=2.0)
    telemetry = tmp_path / "telemetry"
    obs.start(telemetry, run_id="run-rollback")
    try:
        with running_registry_daemon(
            registry, config, guard=guard, reload_hook=poison_v2
        ) as daemon:
            body = classify_body(pairs, mjd, deadline_ms=30000)
            statuses = []
            # Warm traffic on v1: enough for the monitor to evaluate
            # without flagging (scores match the committed baseline).
            for _ in range(MIN_SAMPLES + 5):
                statuses.append(post_classify(daemon.port, body)[0])
            assert daemon._engine_version == "v1"
            report = daemon.engine.drift_monitor.report
            assert report.n_window >= MIN_SAMPLES and not report.flagged
            assert int(daemon.metrics.counter("daemon.rollbacks").value) == 0

            registry.promote("v2")
            _wait_for(lambda: daemon._engine_version == "v2")

            # Sustained load on the poisoned version until the guard
            # trips and the daemon swaps back — bounded, not open-loop.
            # v2's window starts empty, so it needs MIN_SAMPLES of its
            # own scores before the first flagged verdict.
            for _ in range(MIN_SAMPLES + 40):
                statuses.append(post_classify(daemon.port, body)[0])
                if daemon._engine_version == "v1":
                    break
                time.sleep(0.01)
            _wait_for(
                lambda: int(daemon.metrics.counter("daemon.rollbacks").value) == 1
            )
            _wait_for(lambda: daemon._engine_version == "v1")

            # Zero dropped requests: every send was answered, and
            # under this light load none were shed or timed out.
            assert statuses and set(statuses) == {200}
            responses = int(daemon.metrics.counter("daemon.responses").value)
            assert responses == len(statuses)

            # The registry quarantined v2 and restored v1...
            state = registry.state()
            assert state["production"] == "v1"
            assert state["versions"]["v2"]["status"] == "rolled_back"
            assert "drift" in state["versions"]["v2"]["reason"]
            rollbacks = [
                entry for entry in state["history"]
                if entry["action"] == "rollback"
            ]
            assert len(rollbacks) == 1
            assert rollbacks[0]["by"].startswith("daemon:")

            # ...and the quarantined version is refused by promote.
            with pytest.raises(RegistryError, match="rolled back"):
                registry.promote("v2")

            health = _healthz(daemon.port)
            assert health["model_version"] == "v1"
            assert health["rollbacks"] == 1

            # Traffic keeps flowing on the restored version.
            assert post_classify(daemon.port, body)[0] == 200
    finally:
        obs.stop()

    records = list(read_events(telemetry / EVENTS_FILE))
    rolled = [
        r for r in records
        if r["event"] == "registry.rolled_back" and r["role"] == "production"
    ]
    assert len(rolled) == 1
    assert rolled[0]["version"] == "v2"
    assert rolled[0]["restored"] == "v1"
    assert "drift" in rolled[0]["reason"]
    # The guard and the event stream read one monitor: v2's window
    # flags (v1's never does) before the rollback it causes.
    seq = {
        name: [r["seq"] for r in records if r["event"] == name]
        for name in ("registry.reloaded", "drift.flagged")
    }
    promoted_at = seq["registry.reloaded"][0]
    assert any(
        promoted_at < flagged < rolled[0]["seq"]
        for flagged in seq["drift.flagged"]
    )
    assert all(flagged > promoted_at for flagged in seq["drift.flagged"])
    reloads = [r for r in records if r["event"] == "registry.reloaded"]
    # v1 -> v2 (promote), v2 -> v1 (rollback).
    assert [(r["previous"], r["version"]) for r in reloads] == [
        ("v1", "v2"), ("v2", "v1"),
    ]


class TestHotReload:
    @pytest.mark.obs
    @pytest.mark.parametrize("scoring_workers", [0, 2], ids=["engine", "pool2"])
    def test_one_no_baseline_warning_per_loaded_version(
        self, two_version_registry, tmp_path, scoring_workers
    ):
        """The daemon loads v1, then v2 on a promote: one
        ``serve.no_drift_baseline`` each, in-process or in pool mode
        (where the version's pool warns and the validating engine is
        built without a baseline)."""
        registry = two_version_registry
        telemetry = tmp_path / "telemetry"
        config = DaemonConfig(scoring_workers=scoring_workers, reload_poll_s=0.05)
        obs.start(telemetry, run_id="serve-nobaseline")
        try:
            with running_registry_daemon(registry, config) as daemon:
                registry.promote("v2")
                _wait_for(lambda: daemon._engine_version == "v2", timeout_s=30.0)
        finally:
            obs.stop()
        warned = [
            record["model_dir"] for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "serve.no_drift_baseline"
        ]
        assert warned == [registry.path("v1"), registry.path("v2")]

    def test_burst_traffic_across_a_promote_drops_nothing(self, tmp_path):
        """Satellite: concurrent hot reload under a BurstSchedule.

        Conservation must hold across the swap (every request answered
        exactly once, ``sent == 200 + 429 + 504``), the swap must happen
        exactly once, and every 200 must carry a score bit-identical to
        one of the two versions — no request may see a half-swapped
        engine.
        """
        model_a = tmp_path / "model-a"
        model_b = tmp_path / "model-b"
        _build_model_dir(model_a, seed=0)
        _build_model_dir(model_b, seed=1)
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(registry.register(model_a))
        registry.register(model_b)

        # The daemon loads via verify + from_directory; the expected
        # per-version scores come from the exact same path.
        engine_v1 = InferenceEngine.from_directory(registry.path("v1"))
        engine_v2 = InferenceEngine.from_directory(registry.path("v2"))
        pairs, mjd = make_serve_sample(engine_v1, seed=7)
        expected = {
            round(engine.classify_arrays(pairs[None], mjd[None])[0].probability, 6)
            for engine in (engine_v1, engine_v2)
        }
        assert len(expected) == 2  # the two versions genuinely disagree

        body = classify_body(pairs, mjd, deadline_ms=30000)
        offsets = BurstSchedule(qps=60.0, duration_s=1.0, burst_factor=4.0).offsets()
        config = DaemonConfig(
            queue_depth=8, batch_max_size=4, batch_deadline_ms=5.0,
            reload_poll_s=0.05,
        )
        with running_registry_daemon(registry, config) as daemon:
            assert daemon._engine_version == "v1"
            results = [None] * len(offsets)
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
            # Promote mid-burst, from outside the daemon process's view.
            time.sleep(0.4)
            registry.promote("v2")
            for thread in threads:
                thread.join(timeout=60.0)
            _wait_for(lambda: daemon._engine_version == "v2")

            assert all(result is not None for result in results)
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429, 504}

            # Conservation: nothing dropped, nothing double-answered.
            admitted = int(daemon.metrics.counter("daemon.admitted").value)
            responses = int(daemon.metrics.counter("daemon.responses").value)
            timeouts = int(daemon.metrics.counter("daemon.timeouts").value)
            shed = int(daemon.metrics.counter("daemon.shed").value)
            assert admitted + shed == len(offsets)
            assert responses + timeouts == admitted
            assert statuses.count(200) == responses
            assert statuses.count(429) == shed
            assert statuses.count(504) == timeouts

            # Exactly-once swap, and every scored request saw exactly one
            # whole version.
            assert int(daemon.metrics.counter("daemon.reloads").value) == 1
            scored = [
                doc["result"]["probability"]
                for status, doc in results if status == 200
            ]
            assert scored and set(scored) <= expected
            served_v1 = int(daemon.metrics.counter("daemon.served.v1").value)
            served_v2 = int(daemon.metrics.counter("daemon.served.v2").value)
            assert served_v1 + served_v2 == responses

            health = _healthz(daemon.port)
            assert health["model_version"] == "v2"
            assert health["reloads"] == 1

    @pytest.mark.serve
    def test_pool_burst_traffic_across_a_promote_drops_nothing(self, tmp_path):
        """Acceptance: hot reload under load with the scoring pool on.

        Same conservation and exactly-once-swap contract as the
        single-process variant above, but scoring runs on a two-worker
        :class:`ScoringPool` — the swap boots a new pool for v2 and
        closes v1's without dropping a single in-flight request, and no
        200 may mix versions.
        """
        model_a = tmp_path / "model-a"
        model_b = tmp_path / "model-b"
        _build_model_dir(model_a, seed=0)
        _build_model_dir(model_b, seed=1)
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(registry.register(model_a))
        registry.register(model_b)

        engine_v1 = InferenceEngine.from_directory(registry.path("v1"))
        engine_v2 = InferenceEngine.from_directory(registry.path("v2"))
        pairs, mjd = make_serve_sample(engine_v1, seed=7)
        expected = {
            round(engine.classify_arrays(pairs[None], mjd[None])[0].probability, 6)
            for engine in (engine_v1, engine_v2)
        }
        assert len(expected) == 2

        body = classify_body(pairs, mjd, deadline_ms=30000)
        offsets = BurstSchedule(qps=60.0, duration_s=1.0, burst_factor=4.0).offsets()
        config = DaemonConfig(
            queue_depth=8, batch_max_size=4, batch_deadline_ms=5.0,
            reload_poll_s=0.05, scoring_workers=2,
        )
        with running_registry_daemon(registry, config) as daemon:
            assert daemon._engine_version == "v1"
            v1_pool = daemon._pool
            assert v1_pool is not None
            v1_pids = set(v1_pool.pids())
            results = [None] * len(offsets)
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
            time.sleep(0.4)
            registry.promote("v2")
            for thread in threads:
                thread.join(timeout=60.0)
            _wait_for(lambda: daemon._engine_version == "v2")

            assert all(result is not None for result in results)
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429, 504}

            admitted = int(daemon.metrics.counter("daemon.admitted").value)
            responses = int(daemon.metrics.counter("daemon.responses").value)
            timeouts = int(daemon.metrics.counter("daemon.timeouts").value)
            shed = int(daemon.metrics.counter("daemon.shed").value)
            assert admitted + shed == len(offsets)
            assert responses + timeouts == admitted
            assert statuses.count(200) == responses
            assert statuses.count(429) == shed
            assert statuses.count(504) == timeouts

            # Exactly-once swap: one reload, served by a new pool with
            # new workers, every one alive, zero crashes.
            assert int(daemon.metrics.counter("daemon.reloads").value) == 1
            assert daemon._pool is not v1_pool
            assert set(daemon._pool.pids()).isdisjoint(v1_pids)
            pool_stats = daemon._pool.stats()
            assert pool_stats["crashes"] == 0
            assert pool_stats["broken"] is None
            per_worker = pool_stats["per_worker"]
            assert len(per_worker) == 2
            assert all(worker["alive"] for worker in per_worker)

            scored = [
                doc["result"]["probability"]
                for status, doc in results if status == 200
            ]
            assert scored and set(scored) <= expected
            served_v1 = int(daemon.metrics.counter("daemon.served.v1").value)
            served_v2 = int(daemon.metrics.counter("daemon.served.v2").value)
            assert served_v1 + served_v2 == responses

            health = _healthz(daemon.port)
            assert health["model_version"] == "v2"
            assert health["scoring_pool"]["workers"] == 2

    @pytest.mark.serve
    def test_promote_during_a_held_pool_dispatch_rescores_on_the_new_version(
        self, tmp_path
    ):
        """A dispatch still held on the old pool when the swap closes it
        (past close()'s 2 s grace) breaks; its group is re-scored on the
        new version's pool and answered 200, and the daemon keeps serving
        instead of draining as for a broken served pool."""
        model_a = tmp_path / "model-a"
        model_b = tmp_path / "model-b"
        _build_model_dir(model_a, seed=0)
        _build_model_dir(model_b, seed=1)
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(registry.register(model_a))
        registry.register(model_b)

        marker = 12345.0
        engine_v2 = InferenceEngine.from_directory(registry.path("v2"))
        pairs, mjd = make_serve_sample(engine_v2, seed=7)
        pairs[0, 0, 0, 0] = marker
        want = engine_v2.classify_arrays(pairs[None], mjd[None])[0]
        # The v1 pool's workers hang on the marked sample; both deadlines
        # are far past the swap, so only the swap's close() ends the hold.
        held_pool = ScoringPool(
            model_source=registry.path("v1"),
            config=PoolConfig(workers=2, task_timeout_s=30.0),
            worker_init=WedgeWorkerOnMarker(marker, min_batch=1),
        )
        config = DaemonConfig(
            wedge_timeout_s=30.0, reload_poll_s=0.05, batch_deadline_ms=2.0
        )
        daemon = ServingDaemon(None, config, registry=registry, pool=held_pool)
        daemon.start()
        try:
            held_pids = held_pool.pids()
            answers = []
            thread = threading.Thread(
                target=lambda: answers.append(post_classify(
                    daemon.port, classify_body(pairs, mjd, deadline_ms=60000),
                    timeout=60.0,
                )),
                daemon=True,
            )
            thread.start()
            _wait_for(lambda: daemon._worker.current is not None)
            registry.promote("v2")
            thread.join(timeout=60.0)
            assert answers, "the held request was never answered"
            status, doc = answers[0]
            assert status == 200, doc
            assert "error" not in doc["result"]
            assert doc["result"]["probability"] == round(want.probability, 6)
            # The held dispatch broke on the closed pool, not on its own
            # wedge deadline, and was scored by v2 alone.
            _wait_for(lambda: not any(
                worker.process.is_alive() for worker in held_pool._workers
            ))
            assert held_pool.stats()["broken"] is not None
            assert held_pool.stats()["wedges"] == 0
            assert int(daemon.metrics.counter("daemon.served.v2").value) == 1
            assert int(daemon.metrics.counter("daemon.served.v1").value) == 0
            assert daemon._engine_version == "v2"
            assert daemon._pool is not held_pool
            assert _healthz(daemon.port)["state"] == "ready"
            assert not daemon._draining
            assert not set(held_pids) & set(daemon._pool.pids())
        finally:
            daemon.drain(reason="test-teardown")
        assert daemon.wait() == 0

    def test_healthz_reports_deploy_state(self, two_version_registry):
        """Satellite: /healthz carries version and counters."""
        with running_registry_daemon(two_version_registry) as daemon:
            health = _healthz(daemon.port)
            assert health["model_version"] == "v1"
            for key in ("reloads", "reload_failures", "rollbacks"):
                assert health[key] == 0
            assert "shadow" not in health and "quarantined" not in health

    def test_failed_load_keeps_serving_and_emits_one_typed_event(
        self, two_version_registry, tmp_path
    ):
        """A promote whose load blows up must not take the daemon down."""
        registry = two_version_registry

        def explode_on_v2(engine, version):
            if version == "v2":
                raise RuntimeError("injected load failure")

        telemetry = tmp_path / "telemetry"
        obs.start(telemetry, run_id="run-reloadfail")
        try:
            config = DaemonConfig(reload_poll_s=0.05)
            with running_registry_daemon(
                registry, config, reload_hook=explode_on_v2
            ) as daemon:
                engine_v1 = daemon.engine
                pairs, mjd = make_serve_sample(engine_v1, seed=3)
                body = classify_body(pairs, mjd)
                assert post_classify(daemon.port, body)[0] == 200
                registry.promote("v2")
                _wait_for(
                    lambda: int(
                        daemon.metrics.counter("daemon.reload_failures").value
                    ) >= 1
                )
                # Let several more polls tick: the failed-version memo
                # must keep this at one typed event, not one per poll.
                time.sleep(0.3)
                status, doc = post_classify(daemon.port, body)
                assert status == 200
                assert daemon._engine_version == "v1"
                assert daemon.engine is engine_v1
                health = _healthz(daemon.port)
                assert health["model_version"] == "v1"
                assert health["reload_failures"] == 1
        finally:
            obs.stop()
        failures = [
            record for record in read_events(telemetry / EVENTS_FILE)
            if record["event"] == "registry.reload_failed"
        ]
        assert len(failures) == 1
        assert failures[0]["version"] == "v2"
        assert failures[0]["role"] == "production"
        assert failures[0]["error_type"] == "RuntimeError"

    def test_boot_refuses_a_corrupt_production_version(self, tmp_path):
        model = tmp_path / "model"
        _build_model_dir(model, seed=0)
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(registry.register(model))
        target = registry.path("v1") + "/classifier.npz"
        with open(target, "r+b") as handle:
            handle.write(b"\xde\xad\xbe\xef")
        from repro.runtime import CorruptArtifactError
        from repro.serve import ServingDaemon

        with pytest.raises(CorruptArtifactError) as info:
            ServingDaemon(None, DaemonConfig(), registry=registry)
        assert info.value.path == target


class TestShadowScoring:
    """A candidate is measured against production at promote time, on a
    fixed dataset (the promote gate), not on live traffic."""

    def test_divergent_candidate_is_quarantined(self, tmp_path):
        """A v2 whose saved classifier weights move its probabilities by
        more than the budget is refused with exit 2, and
        ``registry.json`` stays byte-identical."""
        save_model_variant(tmp_path / "base", weight_scale=0.01)
        save_model_variant(tmp_path / "shifted", weight_scale=0.01,
                           bias_shift=-3.0)
        save_gate_dataset(tmp_path / "gate.npz", n=GATE_MIN_SAMPLES)
        registry = ModelRegistry(tmp_path / "registry")
        registry.promote(registry.register(tmp_path / "base"))
        registry.register(tmp_path / "shifted")
        code, before, after = _gate_promote(registry, "v2", tmp_path / "gate.npz")
        assert code == EXIT_BAD_INPUT
        assert after == before
        assert registry.production() == "v1"

    def test_clean_candidate_keeps_shadowing(self, two_version_registry, tmp_path):
        """Identical weights pass the gate with a mean |Δp| of exactly
        0.0, and the verdict is in the promote's audit entry."""
        registry = two_version_registry
        save_gate_dataset(tmp_path / "gate.npz", n=GATE_MIN_SAMPLES)
        code, _before, _after = _gate_promote(
            registry, "v2", tmp_path / "gate.npz"
        )
        assert code == 0
        assert registry.production() == "v2"
        entry = registry.history()[-1]
        assert entry["action"] == "promote" and entry["version"] == "v2"
        gate = entry["gate"]
        assert gate["mean_abs_dp"] == 0.0 and gate["passed"] is True
        assert gate["n"] == GATE_MIN_SAMPLES
        assert gate["budget"] == DIVERGENCE_BUDGET
        assert gate["against"] == "v1"
        assert len(gate["dataset_sha256"]) == 64

    def test_shadow_scores_are_not_audited_as_production(
        self, two_version_registry, tmp_path
    ):
        """Gate scores are not production traffic: a gated promote under
        ``--telemetry`` leaves zero ``serve.request`` events."""
        registry = two_version_registry
        save_gate_dataset(tmp_path / "gate.npz", n=GATE_MIN_SAMPLES)
        telemetry = tmp_path / "telemetry"
        code, _before, _after = _gate_promote(
            registry, "v2", tmp_path / "gate.npz", "--telemetry", str(telemetry)
        )
        assert code == 0
        records = list(read_events(telemetry / EVENTS_FILE))
        assert not [r for r in records if r["event"] == "serve.request"]
        gated = [r for r in records if r["event"] == "models.gated"]
        assert len(gated) == 1 and gated[0]["mean_abs_dp"] == 0.0


class TestAutomaticRollback:
    def test_poisoned_promote_rolls_back_under_load(self, tmp_path):
        _poisoned_promote_drill(tmp_path)

    def test_rollback_without_prior_good_version_keeps_serving(self, tmp_path):
        """Drift on the only version ever deployed: nothing to restore,
        so the daemon logs rollback_failed and keeps answering."""
        _drift_without_prior_good_version(tmp_path, MIN_SAMPLES + 10)

    def test_failed_rollback_is_reported_once_per_version(self, tmp_path):
        """Sustained drift re-posts the rollback on every scored group;
        the watcher memoes the version whose rollback failed, so the
        whole run logs one ``registry.rollback_failed``, not one per tick."""
        telemetry = _drift_without_prior_good_version(tmp_path, 80)
        failures = [
            r for r in read_events(telemetry / EVENTS_FILE)
            if r["event"] == "registry.rollback_failed"
        ]
        assert len(failures) == 1
        assert failures[0]["version"] == "v1"

    def test_rollback_never_quarantines_a_version_it_did_not_serve(
        self, tmp_path
    ):
        """A drift rollback of v2 posted before an operator promoted v3
        must not quarantine v3: the registry refuses the rollback because
        production is no longer the flagged version, and the same tick
        then reloads v3."""
        model = tmp_path / "model"
        _build_model_dir(model, seed=0)
        registry = ModelRegistry(tmp_path / "registry")
        for _ in range(3):
            registry.register(model)
        registry.promote("v1")
        registry.promote("v2")
        from repro.serve import ServingDaemon

        daemon = ServingDaemon(None, DaemonConfig(), registry=registry)
        assert daemon._engine_version == "v2"
        registry.promote("v3")
        daemon._post_rollback("v2", "sustained drift on v2")
        daemon._sync_with_registry()
        state = registry.state()
        assert state["production"] == "v3"
        assert state["versions"]["v3"]["status"] == "production"
        assert state["versions"]["v2"]["status"] == "retired"
        assert daemon._engine_version == "v3"


    def _served_v2_with_retired_v1(self, tmp_path):
        """A daemon (not started) serving v2, with v1 retired."""
        model = tmp_path / "model"
        _build_model_dir(model, seed=0)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(model)
        registry.register(model)
        registry.promote("v1")
        registry.promote("v2")
        from repro.serve import ServingDaemon

        daemon = ServingDaemon(None, DaemonConfig(), registry=registry)
        assert daemon._engine_version == "v2"
        return registry, daemon

    @staticmethod
    def _drift_ticks(daemon, telemetry, ticks=3):
        """Post a drift rollback of v2 and run a watcher tick, ``ticks``
        times; return the ``registry.rollback_failed`` events."""
        obs.start(telemetry, run_id="run-rollback-refused")
        try:
            for _ in range(ticks):
                daemon._post_rollback("v2", "sustained drift on v2")
                daemon._sync_with_registry()
        finally:
            obs.stop()
        return [
            r for r in read_events(telemetry / EVENTS_FILE)
            if r["event"] == "registry.rollback_failed"
        ]

    def test_corrupt_restore_target_is_reported_once_per_version(
        self, tmp_path
    ):
        """The registry refuses to restore a corrupt v1; sustained drift
        re-posts the rollback every tick, and the refusal is memoed like
        any other: one ``registry.rollback_failed`` for v2."""
        registry, daemon = self._served_v2_with_retired_v1(tmp_path)
        with open(registry.path("v1") + "/manifest.json", "ab") as handle:
            handle.write(b"\n")
        with open(registry.state_path, "rb") as handle:
            before = handle.read()
        failures = self._drift_ticks(daemon, tmp_path / "telemetry")
        assert len(failures) == 1
        assert failures[0]["version"] == "v2"
        assert "manifest.json" in failures[0]["message"]
        with open(registry.state_path, "rb") as handle:
            assert handle.read() == before
        assert daemon._engine_version == "v2"

    def test_bad_state_file_rollback_failure_is_not_memoed(self, tmp_path):
        """An unreadable ``registry.json`` may be mended by the next
        tick, so each tick retries the rollback (and reports it)."""
        registry, daemon = self._served_v2_with_retired_v1(tmp_path)
        with open(registry.state_path, "w") as handle:
            handle.write("{not json")
        failures = self._drift_ticks(daemon, tmp_path / "telemetry")
        assert len(failures) == 3
        assert daemon._failed_rollback is None


def _drift_without_prior_good_version(tmp_path, n_requests):
    """Serve ``n_requests`` on a lone v1 that drifts at once; return the
    telemetry directory once its rollback has failed.

    The daemon must keep v1 in production and keep answering.
    """
    probe = make_serve_engine(seed=0)
    pairs, mjd = make_serve_sample(probe, seed=2)
    # Baseline deliberately far from the model's actual scores: v1
    # itself drifts immediately.
    model = tmp_path / "model"
    _build_model_dir(model, seed=0, baseline_scores=np.linspace(0.0, 0.05, 64))
    registry = ModelRegistry(tmp_path / "registry")
    registry.promote(registry.register(model))
    guard = GuardConfig(sustained_checks=2)
    config = DaemonConfig(reload_poll_s=0.05, batch_deadline_ms=2.0)
    telemetry = tmp_path / "telemetry"
    obs.start(telemetry, run_id="run-norollback")
    try:
        with running_registry_daemon(registry, config, guard=guard) as daemon:
            body = classify_body(pairs, mjd)
            # Past MIN_SAMPLES, then flagged verdicts in a row.
            for _ in range(n_requests):
                assert post_classify(daemon.port, body)[0] == 200
                time.sleep(0.01)
            _wait_for(
                lambda: any(
                    r["event"] == "registry.rollback_failed"
                    for r in read_events(telemetry / EVENTS_FILE)
                )
            )
            # Several more watcher ticks on the still-drifting version.
            time.sleep(4 * config.reload_poll_s)
            assert daemon._engine_version == "v1"
            assert post_classify(daemon.port, body)[0] == 200
            assert registry.production() == "v1"
    finally:
        obs.stop()
    return telemetry


class TestDeployStateOwner:
    def test_registry_writes_run_on_the_registry_watcher(self, tmp_path):
        """The scoring thread only posts requests: every rollback the
        drill causes is written to the registry by the watcher thread."""
        calls = []
        _poisoned_promote_drill(
            tmp_path / "promote",
            watch=lambda registry: _record_deploy_writes(registry, calls),
        )
        assert {name for name, _thread in calls} == {"rollback"}
        assert {thread for _name, thread in calls} == {"repro-serve-registry"}
