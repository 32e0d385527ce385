"""Request tracing: span layer, cross-process propagation, the
one-clock contract (every span feeds its histogram, sampled or not),
the trace analysis CLI, and the satellites that ride along (access log,
latency buckets, pool stats)."""

import json
import os
import signal
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs import trace as trace_mod
from repro.obs.log import EVENTS_FILE
from repro.obs.trace import (
    NULL_SPAN,
    SLOW_EVENT,
    SLOW_REQUEST_S,
    SPAN_EVENT,
    build_trees,
    critical_paths,
    derive_span_id,
    derive_trace_id,
    load_spans,
    render_waterfall,
    stage_table,
    validate_spans,
)
from repro.runtime.faults import CrashWorkerOnMarker
from repro.serve import PoolConfig, ScoringPool
from repro.serve.daemon import DaemonConfig

from .helpers import (
    classify_body,
    http_get,
    make_serve_engine,
    make_serve_sample,
    post_classify,
    running_daemon,
    spawn_serve,
)

pytestmark = pytest.mark.obs

#: Magic first-pixel value CrashWorkerOnMarker kills on.
MARKER = 12345.0


@pytest.fixture(autouse=True)
def no_leaked_session():
    """Every test starts and ends with telemetry (and tracing) disabled."""
    assert obs.active() is None
    assert trace_mod.tracer() is None
    yield
    if obs.active() is not None:
        obs.stop()
    trace_mod.uninstall()


@pytest.fixture(scope="module")
def engine():
    return make_serve_engine(seed=0)


def _span_events(directory):
    path = os.path.join(directory, EVENTS_FILE)
    return [
        event for event in obs.read_events(path) if event.get("event") == SPAN_EVENT
    ]


# ----------------------------------------------------------------------
# Config, ids
# ----------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize(
        "spec", ["sometimes", "rate:2", "rate:x", "slow:0", "rate:0.1", "slow:250"]
    )
    def test_bad_specs_raise(self, spec, capsys):
        """``--trace`` is a plain flag: a sampling spec after it is an
        unknown argument."""
        with pytest.raises(SystemExit) as info:
            cli_main(["serve", "--model", "m", "--telemetry", "t", "--trace", spec])
        assert info.value.code == 2
        assert f"unrecognized arguments: {spec}" in capsys.readouterr().err

    def test_ids_deterministic(self):
        assert derive_trace_id("run/r7") == derive_trace_id("run/r7")
        assert derive_trace_id("run/r7") != derive_trace_id("run/r8")
        tid = derive_trace_id("run/r7")
        assert derive_span_id(tid, "1") == derive_span_id(tid, "1")
        assert derive_span_id(tid, "1") != derive_span_id(tid, "2")
        assert len(tid) == 16


# ----------------------------------------------------------------------
# Span layer
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_path_is_null(self):
        """No session: ``obs.span`` is ``NULL_SPAN`` and records nothing."""
        assert trace_mod.tracer() is None
        assert obs.span("anything") is NULL_SPAN
        assert trace_mod.wire_context() is None
        obs.record("anything", 0.1)  # no-op, no error
        with obs.span("nested", n_samples=3) as s:
            assert s is NULL_SPAN
        assert obs.active() is None and trace_mod.tracer() is None

    def test_ambient_span_is_thread_local(self, tmp_path):
        """A span open on one thread never parents a span on another:
        the daemon's handler and scoring threads each trace their own
        requests."""
        session = obs.start(tmp_path, run_id="t", trace=True)
        tracer = session.tracer
        seen = {}

        def other_thread(key, opened, release):
            seen[key] = trace_mod.current_span()
            with trace_mod.span("stage.other") as other:
                seen[key + ".span"] = other
            if opened is not None:
                # Hold a sampled root open while the main thread looks.
                with tracer.start_trace("t/r1"):
                    opened.set()
                    release.wait(10.0)

        try:
            with tracer.start_trace("t/r0") as root:
                assert trace_mod.current_span() is root
                worker = threading.Thread(target=other_thread, args=("a", None, None))
                worker.start()
                worker.join()
            opened, release = threading.Event(), threading.Event()
            worker = threading.Thread(
                target=other_thread, args=("b", opened, release)
            )
            worker.start()
            assert opened.wait(10.0)
            try:
                assert trace_mod.current_span() is None
                with trace_mod.span("stage.main") as main_span:
                    assert not main_span  # unsampled: no ambient parent
            finally:
                release.set()
                worker.join()
        finally:
            obs.stop()
        assert seen["a"] is None and seen["b"] is None
        assert not seen["a.span"] and not seen["b.span"]
        # Only the two roots were emitted; no stage joined either trace.
        names = sorted(event["name"] for event in _span_events(tmp_path))
        assert names == ["request", "request"]

    def test_ambient_nesting_and_emission(self, tmp_path):
        session = obs.start(tmp_path, run_id="t", trace=True)
        tracer = session.tracer
        root = tracer.start_trace("t/r0", n_visits=3)
        with root:
            with trace_mod.span("stage.outer", k=1):
                with trace_mod.span("stage.inner"):
                    time.sleep(0.001)
            tracer.record("stage.measured", 0.005, parent=root, extra="x")
        obs.stop()

        spans = {event["name"]: event for event in _span_events(tmp_path)}
        assert set(spans) == {
            "request", "stage.outer", "stage.inner", "stage.measured",
        }
        root_rec = spans["request"]
        assert "parent_id" not in root_rec
        assert spans["stage.outer"]["parent_id"] == root_rec["span_id"]
        assert spans["stage.inner"]["parent_id"] == spans["stage.outer"]["span_id"]
        assert spans["stage.measured"]["parent_id"] == root_rec["span_id"]
        assert spans["stage.measured"]["duration_s"] == 0.005
        assert all(
            event["trace_id"] == derive_trace_id("t/r0")
            for event in spans.values()
        )
        assert root_rec["request_id"] == "t/r0"
        # Per-stage histograms landed in the metrics snapshot.
        snapshot = json.load(open(tmp_path / "metrics.json"))
        assert "trace.request_s" in snapshot["histograms"]
        assert "trace.stage.inner_s" in snapshot["histograms"]

    def test_span_error_attr_on_exception(self, tmp_path):
        session = obs.start(tmp_path, trace=True)
        root = session.tracer.start_trace("t/r0")
        with pytest.raises(RuntimeError):
            with root:
                with trace_mod.span("stage.bad"):
                    raise RuntimeError("boom")
        obs.stop()
        spans = {event["name"]: event for event in _span_events(tmp_path)}
        assert spans["stage.bad"]["error"] == "RuntimeError"

    def test_every_request_sampled_slow_ones_warned(self, tmp_path):
        """A traced session emits every request's tree; a root lasting
        SLOW_REQUEST_S or longer also writes one slow-request warning."""
        session = obs.start(tmp_path, trace=True)
        tracer = session.tracer
        with tracer.start_trace("t/r0"):
            with trace_mod.span("stage.fast"):
                pass
        # A root that began SLOW_REQUEST_S ago (as the daemon's does for
        # the time spent reading the body) is over the threshold at once.
        with tracer.start_trace("t/r1", t_offset_s=SLOW_REQUEST_S):
            with trace_mod.span("stage.slow"):
                pass
        obs.stop()
        events = list(obs.read_events(os.path.join(tmp_path, EVENTS_FILE)))
        spans = [e for e in events if e.get("event") == SPAN_EVENT]
        assert Counter(s["trace_id"] for s in spans) == {
            derive_trace_id("t/r0"): 2, derive_trace_id("t/r1"): 2,
        }
        slow_events = [e for e in events if e.get("event") == SLOW_EVENT]
        assert len(slow_events) == 1
        assert slow_events[0]["level"] == "warning"
        assert slow_events[0]["request_id"] == "t/r1"
        assert slow_events[0]["threshold_s"] == SLOW_REQUEST_S

    def test_untraced_session_samples_nothing(self, tmp_path):
        session = obs.start(tmp_path)
        try:
            assert session.tracer.start_trace("run/r1") is None
        finally:
            obs.stop()

    def test_schema_v2_validates_span_records(self, tmp_path):
        session = obs.start(tmp_path, trace=True)
        root = session.tracer.start_trace("t/r0")
        with root:
            pass
        obs.stop()
        n, errors = obs.validate_file(os.path.join(tmp_path, EVENTS_FILE))
        assert errors == []
        assert n >= 3
        # A span record missing its required fields is flagged.
        bad = dict(_span_events(tmp_path)[0])
        del bad["span_id"]
        assert any("span_id" in e for e in obs.validate_event(bad))

    def test_validate_spans_catches_structural_damage(self):
        good = {
            "trace_id": "a" * 16, "span_id": "b" * 16,
            "name": "x", "duration_s": 0.1,
        }
        assert validate_spans([good]) == []
        assert validate_spans([good, dict(good)])  # duplicate ids
        assert validate_spans([{**good, "duration_s": -1.0}])
        assert validate_spans([{**good, "name": 3}])
        missing = dict(good)
        del missing["trace_id"]
        assert validate_spans([missing])


# ----------------------------------------------------------------------
# Daemon integration
# ----------------------------------------------------------------------
class TestDaemonTracing:
    def test_request_spans_end_to_end(self, engine, tmp_path):
        obs.start(tmp_path, run_id="serve", trace=True)
        try:
            with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
                pairs, mjd = make_serve_sample(engine)
                status, payload = post_classify(
                    daemon.port, classify_body(pairs, mjd)
                )
                assert status == 200
                daemon.drain()
        finally:
            obs.stop()
        spans = load_spans(os.fspath(tmp_path))
        assert validate_spans(spans) == []
        names = {s["name"] for s in spans}
        assert {
            "request", "http.read", "admission.queue_wait", "batch.form",
            "daemon.score", "engine.lock_wait", "serve.repair", "serve.cnn",
            "serve.features",
        } <= names
        trees = build_trees(spans)
        assert len(trees) == 1
        tree = trees[0]
        assert tree["request_id"] == "serve/r0"
        assert tree["root"]["status"] == 200
        # Engine stages nest under daemon.score via the ambient stack.
        by_id = {s["span_id"]: s for s in tree["spans"]}
        score = next(s for s in tree["spans"] if s["name"] == "daemon.score")
        cnn = next(s for s in tree["spans"] if s["name"] == "serve.cnn")
        assert by_id[cnn["parent_id"]]["name"] == "daemon.score"
        assert score["parent_id"] == tree["root"]["span_id"]
        # Analysis renders.
        lines = render_waterfall(tree)
        assert lines[0].startswith("waterfall: serve/r0")
        assert any("serve.cnn" in line for line in lines)
        rows = stage_table(spans)
        assert {"stage", "count", "p50_ms", "p99_ms", "total_s"} <= set(rows[0])
        paths = critical_paths(trees)
        assert paths and paths[0]["path"].startswith("request")

    def test_untraced_daemon_pays_nothing(self, engine, tmp_path):
        obs.start(tmp_path, run_id="serve")  # telemetry on, tracing off
        try:
            with running_daemon(engine) as daemon:
                pairs, mjd = make_serve_sample(engine)
                status, _ = post_classify(daemon.port, classify_body(pairs, mjd))
                assert status == 200
                daemon.drain()
        finally:
            obs.stop()
        assert _span_events(tmp_path) == []

    def test_access_log_covers_non_classify_traffic(self, engine, tmp_path):
        obs.start(tmp_path, run_id="serve")
        try:
            with running_daemon(engine) as daemon:
                http_get(daemon.port, "/healthz")
                http_get(daemon.port, "/metrics")
                http_get(daemon.port, "/nope")
                status, _ = post_classify(daemon.port, b"not json")
                assert status == 400
                daemon.drain()
        finally:
            obs.stop()
        events = list(obs.read_events(os.path.join(tmp_path, EVENTS_FILE)))
        access = [e for e in events if e.get("event") == "serve.access"]
        seen = {(e["method"], e["path"], e["status"]) for e in access}
        assert ("GET", "/healthz", 200) in seen
        assert ("GET", "/metrics", 200) in seen
        assert ("GET", "/nope", 404) in seen
        assert ("POST", "/classify", 400) in seen
        for event in access:
            assert event["bytes"] > 0
            assert event["duration_ms"] >= 0

    def test_default_buckets_unchanged(self, engine):
        with running_daemon(engine) as daemon:
            pairs, mjd = make_serve_sample(engine)
            status, _ = post_classify(daemon.port, classify_body(pairs, mjd))
            assert status == 200
            _, text = http_get(daemon.port, "/metrics")
            assert daemon._latency_hist.buckets == tuple(
                obs.DEFAULT_LATENCY_BUCKETS_S
            )
            assert daemon._latency_hist.count == 1
            daemon.drain()
        buckets = [
            line for line in text.decode().splitlines()
            if line.startswith("daemon_latency_s_bucket")
        ]
        assert len(buckets) == len(obs.DEFAULT_LATENCY_BUCKETS_S) + 1  # and +Inf


# ----------------------------------------------------------------------
# Cross-process propagation through the scoring pool
# ----------------------------------------------------------------------
class TestPoolTracing:
    def _traced_pool_batch(self, engine, tmp_path, pairs, mjd, **pool_kwargs):
        session = obs.start(tmp_path, run_id="pool", trace=True)
        pool = ScoringPool(
            engine=engine, config=PoolConfig(workers=2), **pool_kwargs
        )
        try:
            pool.start()
            root = session.tracer.start_trace("pool/r0")
            with root:
                results = pool.classify_arrays(pairs, mjd)
        finally:
            pool.close()
            obs.stop()
        return root, results

    def test_worker_spans_cross_the_pipe(self, engine, tmp_path):
        rng = np.random.default_rng(3)
        v, s = engine._n_used_visits, 40
        pairs = rng.normal(0.0, 30.0, size=(6, v, 2, s, s)).astype(np.float32)
        mjd = np.tile(
            (57000.0 + np.arange(v) * 0.01).astype(np.float32), (6, 1)
        )
        root, results = self._traced_pool_batch(engine, tmp_path, pairs, mjd)
        assert len(results) == 6
        spans = load_spans(os.fspath(tmp_path))
        assert validate_spans(spans) == []
        workers = [s for s in spans if s["name"] == "worker.compute"]
        assert len(workers) == 2  # one shard per worker
        scatter = next(s for s in spans if s["name"] == "pool.scatter")
        gather = next(s for s in spans if s["name"] == "pool.gather")
        for span_rec in workers:
            assert span_rec["trace_id"] == root.trace_id
            assert span_rec["parent_id"] == root.span_id
            assert span_rec["worker"] in (0, 1)
            assert span_rec["pid"] != os.getpid()
        assert scatter["parent_id"] == root.span_id
        assert gather["parent_id"] == root.span_id
        # Engine stages inside the workers nest under worker.compute.
        worker_ids = {s["span_id"] for s in workers}
        cnn_spans = [s for s in spans if s["name"] == "serve.cnn"]
        assert cnn_spans and all(
            s["parent_id"] in worker_ids for s in cnn_spans
        )

    def test_trace_survives_worker_crash_and_respawn(self, engine, tmp_path):
        """Satellite: spans from a respawned worker still carry the
        trace, and the heal re-score records as a child of the gather."""
        rng = np.random.default_rng(4)
        v, s = engine._n_used_visits, 40
        pairs = rng.normal(0.0, 30.0, size=(6, v, 2, s, s)).astype(np.float32)
        mjd = np.tile(
            (57000.0 + np.arange(v) * 0.01).astype(np.float32), (6, 1)
        )
        marked = pairs.copy()
        marked[5, 0, 0, 0, 0] = MARKER  # kills only grouped batches
        root, results = self._traced_pool_batch(
            engine, tmp_path, marked, mjd,
            worker_init=CrashWorkerOnMarker(MARKER, min_batch=2),
        )
        assert len(results) == 6
        spans = load_spans(os.fspath(tmp_path))
        assert validate_spans(spans) == []
        assert all(
            span_rec["trace_id"] == root.trace_id
            for span_rec in spans
            if span_rec["name"] != "request"
        )
        gather = next(s for s in spans if s["name"] == "pool.gather")
        heal = next(s for s in spans if s["name"] == "pool.heal")
        assert heal["parent_id"] == gather["span_id"]
        # The respawned worker's per-single re-scores parent under the
        # heal span and still carry the original trace id.
        healed = [
            s for s in spans
            if s["name"] == "worker.compute"
            and s["parent_id"] == heal["span_id"]
        ]
        assert healed
        assert all(s["trace_id"] == root.trace_id for s in healed)

    def test_stats_carry_counters_not_windows(self, engine):
        """No windowed timing keys (Prometheus rate() over the *_s_total
        gauges gives any window); crash healing is counted in stats."""
        rng = np.random.default_rng(5)
        v, s = engine._n_used_visits, 40
        pairs = rng.normal(0.0, 30.0, size=(4, v, 2, s, s)).astype(np.float32)
        mjd = np.tile(
            (57000.0 + np.arange(v) * 0.01).astype(np.float32), (4, 1)
        )
        pool = ScoringPool(engine=engine, config=PoolConfig(workers=2))
        try:
            pool.start()
            pool.classify_arrays(pairs, mjd)
            stats = pool.stats()
        finally:
            pool.close()
        assert not [key for key in stats if "window" in key]
        assert stats["poison_samples"] == 0
        assert stats["crashed_shards"] == 0
        assert stats["scatter_s_total"] > 0.0 and stats["gather_s_total"] > 0.0


# ----------------------------------------------------------------------
# One clock: spans are the only timing primitive
# ----------------------------------------------------------------------
def _stage_counts(histograms):
    """``{stage: count}`` of the ``trace.<stage>_s`` histograms."""
    return {
        name[len("trace."):-len("_s")]: hist["count"]
        for name, hist in histograms.items()
        if name.startswith("trace.")
    }


class TestOneClock:
    def test_session_without_trace_times_every_stage(self, engine, tmp_path):
        pairs, mjd = make_serve_sample(engine)
        batch, dates = np.stack([pairs, pairs]), np.stack([mjd, mjd])
        obs.start(tmp_path, run_id="clock")
        try:
            for _ in range(3):
                engine.classify_arrays(batch, dates)
        finally:
            histograms = obs.stop()["histograms"]
        counts = _stage_counts(histograms)
        n_convs = len(engine.pipeline.cnn._conv_blocks)
        assert counts["serve.repair"] == 3
        assert counts["serve.cnn"] == 3 and counts["serve.features"] == 3
        assert counts["nn.conv2d"] == 3 * n_convs
        assert _span_events(tmp_path) == []

    def test_sampled_histograms_equal_span_events(self, engine, tmp_path):
        """In a traced session every stage is counted exactly once —
        worker spans merged across the pipe included."""
        rng = np.random.default_rng(6)
        v, s = engine._n_used_visits, 40
        pairs = rng.normal(0.0, 30.0, size=(4, v, 2, s, s)).astype(np.float32)
        mjd = np.tile(
            (57000.0 + np.arange(v) * 0.01).astype(np.float32), (4, 1)
        )
        session = obs.start(tmp_path, run_id="clock", trace=True)
        pool = ScoringPool(engine=engine, config=PoolConfig(workers=2))
        try:
            pool.start()
            with session.tracer.start_trace("clock/r0"):
                pool.classify_arrays(pairs, mjd)
            with session.tracer.start_trace("clock/r1"):
                engine.classify_arrays(pairs[:2], mjd[:2])
        finally:
            pool.close()
            histograms = obs.stop()["histograms"]
        events = Counter(event["name"] for event in _span_events(tmp_path))
        assert events["worker.compute"] == 2
        assert events["serve.cnn"] == 3  # one per worker shard + in-process
        assert _stage_counts(histograms) == dict(events)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    @pytest.fixture()
    def traced_dir(self, engine, tmp_path):
        directory = tmp_path / "telemetry"
        obs.start(directory, run_id="serve", trace=True)
        try:
            with running_daemon(engine, DaemonConfig(batch_deadline_ms=2.0)) as daemon:
                pairs, mjd = make_serve_sample(engine)
                body = classify_body(pairs, mjd)
                for _ in range(3):
                    status, _ = post_classify(daemon.port, body)
                    assert status == 200
                daemon.drain()
        finally:
            obs.stop()
        return os.fspath(directory)

    def test_trace_command_renders_analysis(self, traced_dir, capsys):
        assert cli_main(["trace", traced_dir, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validated" in out
        assert "per-stage latency" in out
        assert "waterfall: serve/r0" in out
        assert "critical paths:" in out

    def test_trace_command_filters_by_request(self, traced_dir, capsys):
        assert cli_main(["trace", traced_dir, "--request", "serve/r1"]) == 0
        out = capsys.readouterr().out
        assert "waterfall: serve/r1" in out
        assert "waterfall: serve/r0" not in out
        assert cli_main(["trace", traced_dir, "--request", "nope"]) == 2

    def test_trace_command_on_missing_dir(self, tmp_path, capsys):
        assert cli_main(["trace", os.fspath(tmp_path / "absent")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["trace", os.fspath(empty)]) == 0
        assert "no span records" in capsys.readouterr().err

    def test_trace_command_validate_catches_damage(self, traced_dir, capsys):
        events = os.path.join(traced_dir, EVENTS_FILE)
        with open(events, "a") as handle:
            record = {"event": SPAN_EVENT, "trace_id": "x", "name": 3}
            handle.write(json.dumps(record) + "\n")
        assert cli_main(["trace", traced_dir, "--validate"]) == 2

    def test_serve_trace_requires_telemetry(self, capsys):
        assert cli_main(["serve", "--model", "m", "--trace"]) == 2
        assert "--trace requires --telemetry" in capsys.readouterr().err

    def test_bad_trace_spec_exits_bad_input(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        with pytest.raises(SystemExit) as info:
            cli_main([
                "serve", "--model", "m",
                "--telemetry", os.fspath(telemetry), "--trace", "sometimes",
            ])
        assert info.value.code == 2
        assert obs.active() is None
        assert not telemetry.exists()  # refused before any session opened

    def test_latency_buckets_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["serve", "--model", "m", "--latency-buckets-ms", "5,50"])
        assert info.value.code == 2
        assert "unrecognized arguments: --latency-buckets-ms" in capsys.readouterr().err

    def test_bare_trace_records_a_tree_per_request(self, engine, tmp_path):
        """``repro serve --telemetry DIR --trace`` in its own process: every
        request leaves one valid span tree rooted at its request id."""
        model = tmp_path / "model"
        engine.save(os.fspath(model))
        telemetry = tmp_path / "telemetry"
        process, port = spawn_serve(
            model, "--telemetry", os.fspath(telemetry), "--trace",
            "--batch-deadline-ms", "2",
        )
        try:
            pairs, mjd = make_serve_sample(engine)
            body = classify_body(pairs, mjd)
            for _ in range(3):
                status, _ = post_classify(port, body)
                assert status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        spans = load_spans(os.fspath(telemetry))
        assert validate_spans(spans) == []
        trees = build_trees(spans)
        assert len(trees) == 3
        assert sorted(tree["request_id"].rsplit("/", 1)[1] for tree in trees) == [
            "r0", "r1", "r2",
        ]
        assert all(
            {"request", "daemon.score", "serve.cnn"}
            <= {s["name"] for s in tree["spans"]}
            for tree in trees
        )

    def test_metrics_report_summarizes_spans(self, traced_dir, capsys):
        assert cli_main(["metrics", traced_dir]) == 0
        out = capsys.readouterr().out
        assert "trace spans" in out
        assert "worker.compute" not in out  # in-process daemon: no pool spans
        assert "daemon.score" in out
