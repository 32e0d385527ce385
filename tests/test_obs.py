"""Telemetry core: event-log schema, run-id stamping, metrics, sessions,
drift statistics."""

import io
import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    EVENTS_FILE,
    METRICS_FILE,
    SCHEMA_VERSION,
    DriftBaseline,
    DriftMonitor,
    EventLog,
    Histogram,
    MetricsRegistry,
    ks_statistic,
    psi_statistic,
    read_events,
    validate_event,
    validate_file,
)
from repro.obs.drift import MIN_SAMPLES, WINDOW

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def no_leaked_session():
    """Every test starts and ends with telemetry disabled."""
    assert obs.active() is None
    yield
    if obs.active() is not None:
        obs.stop()
        pytest.fail("test leaked an active telemetry session")


class TestEventLog:
    def test_jsonl_round_trip_validates(self, tmp_path):
        session = obs.start(tmp_path, run_id="run-x")
        try:
            session.emit("build.start", n_target=np.int64(12), seed=0)
            session.emit("build.slot", level="debug", slot=3, attempts=[1, 2])
            session.emit("build.end", message="done", elapsed=np.float32(0.5))
        finally:
            obs.stop()
        path = tmp_path / EVENTS_FILE
        records = list(read_events(path))
        assert [r["event"] for r in records] == [
            "session.start", "build.start", "build.slot", "build.end", "session.end",
        ]
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        for record in records:
            assert validate_event(record) == []
            assert record["schema"] == SCHEMA_VERSION
            assert record["run_id"] == "run-x"
        # numpy scalars must arrive as JSON-native numbers
        assert records[1]["n_target"] == 12
        assert isinstance(records[1]["n_target"], int)
        assert isinstance(records[3]["elapsed"], float)
        n, errors = validate_file(path)
        assert (n, errors) == (5, [])

    def test_process_scope_visible_from_other_threads(self, tmp_path):
        """An event emitted from another thread carries the session's run_id."""
        session = obs.start(tmp_path, run_id="run-shared")
        try:
            thread = threading.Thread(
                target=lambda: session.emit("serve.batch", batch=7)
            )
            thread.start()
            thread.join()
        finally:
            obs.stop()
        (record,) = [
            r for r in read_events(tmp_path / EVENTS_FILE) if r["event"] == "serve.batch"
        ]
        assert record["run_id"] == "run-shared"
        assert record["batch"] == 7

    def test_caller_fields_win_over_context_but_not_header(self, tmp_path):
        session = obs.start(tmp_path, run_id="run-session")
        try:
            stamped = session.emit("train.epoch", epoch=9)
            overridden = session.emit("train.epoch", run_id="run-caller", seq="spoofed")
        finally:
            obs.stop()
        assert stamped["run_id"] == "run-session"
        assert stamped["epoch"] == 9
        assert overridden["run_id"] == "run-caller"  # caller beats session stamp
        assert overridden["seq"] == 3  # header beats caller
        assert validate_event(overridden) == []
        # A bare log stamps nothing of its own.
        record = EventLog(io.StringIO()).emit("train.epoch", epoch=1)
        assert "run_id" not in record

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        path.write_text('{"schema": 1, "seq": 1}\n{oops\n')
        with pytest.raises(ValueError, match=":2:"):
            list(read_events(path))

    def test_rejects_unknown_level(self):
        log = EventLog(io.StringIO())
        with pytest.raises(ValueError, match="unknown level"):
            log.emit("x", level="fatal")


class TestSchema:
    def _valid(self):
        return {
            "schema": SCHEMA_VERSION, "ts": 1.0, "seq": 1,
            "level": "info", "event": "serve.request", "request_id": "run/r0",
        }

    def test_valid_record_passes(self):
        assert validate_event(self._valid()) == []

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"schema": 99}, "schema version"),
            ({"seq": 0}, "seq"),
            ({"level": "fatal"}, "unknown level"),
            ({"event": "Serve.Request"}, "dotted lower-case"),
            ({"ts": "noon"}, "'ts'"),
        ],
    )
    def test_bad_header_fields(self, patch, fragment):
        record = {**self._valid(), **patch}
        assert any(fragment in err for err in validate_event(record))

    def test_requires_run_or_request_id(self):
        record = self._valid()
        del record["request_id"]
        assert any("run_id" in err for err in validate_event(record))
        record["run_id"] = "run-1"
        assert validate_event(record) == []

    def test_validate_file_catches_seq_regression(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        a = {**self._valid(), "seq": 2}
        b = {**self._valid(), "seq": 2}
        path.write_text(json.dumps(a) + "\n" + json.dumps(b) + "\n")
        n, errors = validate_file(path)
        assert n == 2
        assert any("does not increase" in err for err in errors)


class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve.requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_histogram_bucket_edges_upper_inclusive(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 5.0))
        assert hist.observe(0.5) == 0
        assert hist.observe(1.0) == 0  # exactly on a bound -> that bucket
        assert hist.observe(1.0000001) == 1
        assert hist.observe(5.0) == 2
        assert hist.observe(5.1) == 3  # +Inf overflow slot
        assert hist.count == 5
        assert hist.to_dict()["counts"] == [2, 1, 1, 1]
        assert hist.bucket_label(5.0) == "le=5.0"
        assert hist.bucket_label(99.0) == "le=+Inf"

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="finite"):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_registry_histogram_bucket_conflict(self):
        registry = MetricsRegistry()
        first = registry.histogram("serve.latency_s", buckets=(0.1, 1.0))
        assert registry.histogram("serve.latency_s", buckets=(0.1, 1.0)) is first
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("serve.latency_s", buckets=(0.2, 1.0))

    def test_registry_rejects_bad_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="lower-case"):
            registry.counter("Serve Requests")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(3)
        registry.gauge("train.lr").set(0.001)
        hist = registry.histogram("serve.latency_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 2.0):
            hist.observe(value)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE serve_requests counter" in lines
        assert "serve_requests 3" in lines
        assert "# TYPE train_lr gauge" in lines
        # cumulative le buckets with the implicit +Inf closing the series
        assert 'serve_latency_s_bucket{le="0.1"} 2' in lines
        assert 'serve_latency_s_bucket{le="1"} 3' in lines
        assert 'serve_latency_s_bucket{le="+Inf"} 4' in lines
        assert "serve_latency_s_count 4" in lines
        assert any(line.startswith("serve_latency_s_sum ") for line in lines)

    def test_snapshot_write_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        path = tmp_path / METRICS_FILE
        written = registry.write(path)
        assert json.loads(path.read_text()) == written


class TestSession:
    def test_lifecycle_files_and_terminal_events(self, tmp_path):
        directory = tmp_path / "telemetry"
        session = obs.start(directory, command="unit-test")
        session.emit("unit.ping", value=1)
        session.metrics.counter("unit.pings").inc()
        snapshot = obs.stop(status="ok", exit_code=0)
        assert obs.active() is None
        assert snapshot["counters"]["unit.pings"] == 1
        records = list(read_events(directory / EVENTS_FILE))
        assert records[0]["event"] == "session.start"
        assert records[0]["command"] == "unit-test"
        assert records[-1]["event"] == "session.end"
        assert records[-1]["status"] == "ok"
        assert all(r["run_id"] == session.run_id for r in records)
        n, errors = validate_file(directory / EVENTS_FILE)
        assert (n, errors) == (3, [])
        assert json.loads((directory / METRICS_FILE).read_text()) == snapshot

    def test_sessions_do_not_nest(self, tmp_path):
        obs.start(tmp_path / "a")
        try:
            with pytest.raises(RuntimeError, match="already active"):
                obs.start(tmp_path / "b")
        finally:
            obs.stop()
        assert obs.stop() == {}  # idempotent when nothing is active

    def test_deterministic_request_ids(self, tmp_path):
        session = obs.start(tmp_path / "t", run_id="run-fixed")
        try:
            assert session.new_request_id(5) == "run-fixed/r5"
            assert session.new_request_id(5) == "run-fixed/r5"
            assert session.new_request_id() != session.new_request_id()
        finally:
            obs.stop()

    def test_workspace_source_registered_on_start(self, tmp_path):
        """The conv workspace counters land in metrics.json as
        ``nn.workspace_*`` gauges, written at session close."""
        obs.start(tmp_path / "t")
        snapshot = obs.stop()
        assert "sources" not in snapshot
        assert {
            f"nn.workspace_{name}"
            for name in ("hits", "misses", "evictions", "entries", "bytes")
        } <= set(snapshot["gauges"])
        with open(tmp_path / "t" / "metrics.json") as handle:
            assert json.load(handle)["gauges"] == snapshot["gauges"]

    def test_error_status_recorded(self, tmp_path):
        obs.start(tmp_path / "t")
        obs.stop(status="error", exit_code=3)
        last = list(read_events(tmp_path / "t" / EVENTS_FILE))[-1]
        assert last["status"] == "error"
        assert last["level"] == "error"
        assert last["exit_code"] == 3


class TestDriftStatistics:
    def test_psi_zero_on_identical_distributions(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        assert psi_statistic(probs, probs) == pytest.approx(0.0, abs=1e-9)
        assert ks_statistic(probs, probs) == pytest.approx(0.0, abs=1e-9)

    def test_psi_large_on_shift(self):
        expected = np.array([0.7, 0.2, 0.1])
        observed = np.array([0.1, 0.2, 0.7])
        assert psi_statistic(expected, observed) > 0.25
        assert ks_statistic(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_baseline_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        baseline = DriftBaseline.from_samples(
            rng.uniform(size=400), flux=rng.normal(2.0, 0.5, size=400)
        )
        baseline.save(tmp_path)
        loaded = DriftBaseline.load(tmp_path)
        np.testing.assert_allclose(loaded.score_probs, baseline.score_probs)
        np.testing.assert_allclose(loaded.flux_edges, baseline.flux_edges)
        assert DriftBaseline.load(tmp_path / "nowhere") is None

    def test_monitor_silent_on_baseline_traffic(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=1000)
        monitor = DriftMonitor(DriftBaseline.from_samples(scores))
        report, changed = monitor.observe(rng.uniform(size=200))
        assert not report.flagged and not changed

    def test_monitor_flags_shifted_traffic(self):
        rng = np.random.default_rng(2)
        monitor = DriftMonitor(DriftBaseline.from_samples(rng.uniform(0.0, 0.5, size=1000)))
        report, changed = monitor.observe(rng.uniform(0.5, 1.0, size=200))
        assert report.flagged and monitor.report is report and changed
        assert report.reasons
        assert report.to_dict()["flagged"] is True

    def test_monitor_needs_min_samples(self):
        rng = np.random.default_rng(3)
        monitor = DriftMonitor(DriftBaseline.from_samples(rng.uniform(size=500)))
        report, _ = monitor.observe(np.full(MIN_SAMPLES - 1, 0.99))
        assert not report.flagged  # below MIN_SAMPLES: never flag on noise
        report, changed = monitor.observe(0.99)
        assert report.flagged and changed  # the same traffic, one more sample

    def test_monitor_window_rolls_and_resets(self):
        rng = np.random.default_rng(4)
        monitor = DriftMonitor(DriftBaseline.from_samples(rng.uniform(0.0, 0.5, size=1000)))
        report, changed = monitor.observe(rng.uniform(0.5, 1.0, size=WINDOW))
        assert report.flagged and changed
        # A full window of baseline-like traffic pushes the drift out.
        report, changed = monitor.observe(rng.uniform(0.0, 0.5, size=WINDOW))
        assert report.n_window == WINDOW
        assert not report.flagged and changed
        # The window keeps only the newest WINDOW scores: a full window
        # of drifted traffic rolls the clean scores out and flags again.
        report, changed = monitor.observe(rng.uniform(0.5, 1.0, size=WINDOW))
        assert report.n_window == WINDOW
        assert report.flagged and changed
        # A fresh monitor (what each new scorer brings) starts empty.
        fresh = DriftMonitor(monitor.baseline)
        assert fresh.report.n_window == 0 and not fresh.report.flagged

    def test_concurrent_feeders_see_each_transition_once(self):
        """Eight threads toggle one monitor between clean and drifted
        traffic: with the transition under the monitor's lock, flagged
        and recovered transitions alternate, so their counts differ by
        exactly the final state."""
        import sys

        rng = np.random.default_rng(5)
        monitor = DriftMonitor(DriftBaseline.from_samples(rng.uniform(0.0, 0.5, size=1000)))
        clean = rng.uniform(0.0, 0.5, size=WINDOW)
        shifted = rng.uniform(0.5, 1.0, size=WINDOW)
        counts = {True: 0, False: 0}
        lock = threading.Lock()

        def feed(offset):
            for k in range(40):
                batch = shifted if (k + offset) % 4 < 2 else clean
                report, changed = monitor.observe(batch)
                if changed:
                    with lock:
                        counts[report.flagged] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=feed, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counts[True] >= 1
        assert counts[True] - counts[False] == int(monitor.report.flagged)
