"""Telemetry end-to-end: serving audit records, concurrent stream() writes,
drift tripping on the dropped-band ladder, the cost of the disabled
hooks on the classify hot path, and the CLI obs-smoke path."""

import contextlib
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.cli import EXIT_BAD_INPUT, main
from repro.core import SupernovaPipeline
from repro.datasets import BuildConfig, DatasetBuilder, N_BANDS, save_dataset
from repro.obs import EVENTS_FILE, read_events, validate_file
from repro.obs import trace as trace_mod
from repro.runtime import DropBand, SaturateRegion
from repro.serve import (
    DegradedInputError,
    FluxPrior,
    InferenceEngine,
    PoolConfig,
    ScoringPool,
)
from repro.survey import ImagingConfig

from .helpers import smoke_classify_workload

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def no_leaked_session():
    assert obs.active() is None
    yield
    if obs.active() is not None:
        obs.stop()
        pytest.fail("test leaked an active telemetry session")


@pytest.fixture(scope="module")
def dataset():
    config = BuildConfig(
        n_ia=6, n_non_ia=6, seed=29, catalog_size=80,
        imaging=ImagingConfig(stamp_size=41),
    )
    return DatasetBuilder(config).build()


@pytest.fixture(scope="module")
def engine(dataset):
    pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
    return InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))


def _events(directory, name=None):
    records = list(read_events(directory / EVENTS_FILE))
    return records if name is None else [r for r in records if r["event"] == name]


class TestServeAudit:
    def test_per_request_audit_records(self, engine, dataset, tmp_path):
        directory = tmp_path / "t"
        session = obs.start(directory, run_id="run-audit")
        try:
            results = list(engine.stream(dataset, batch_size=4))
        finally:
            snapshot = obs.stop()
        requests = _events(directory, "serve.request")
        assert len(requests) == len(dataset)
        for record in requests:
            assert record["request_id"] == f"run-audit/r{record['index']}"
            assert 0.0 <= record["probability"] <= 1.0
            assert isinstance(record["degraded"], bool)
            assert isinstance(record["usable_bands"], list)
            assert isinstance(record["diagnostics"], list)
            assert record["latency_s"] >= 0.0
            assert record["latency_bucket"].startswith("le=")
        assert snapshot["counters"]["serve.requests"] == len(dataset)
        latency = snapshot["histograms"]["serve.latency_s"]
        assert latency["count"] == len(dataset)
        confidence = snapshot["histograms"]["serve.confidence"]
        assert confidence["count"] == len(dataset)
        # with telemetry on and off the served outputs are identical
        plain = list(engine.stream(dataset, batch_size=4))
        assert [r.probability for r in results] == [r.probability for r in plain]

    def test_degraded_request_flagged_with_masked_bands(self, engine, dataset, tmp_path):
        degraded = replace(dataset, pairs=DropBand(1)(dataset.pairs))
        directory = tmp_path / "t"
        obs.start(directory)
        try:
            list(engine.stream(degraded, batch_size=4))
        finally:
            snapshot = obs.stop()
        requests = _events(directory, "serve.request")
        assert all(r["degraded"] for r in requests)
        assert all(r["level"] == "warning" for r in requests)
        assert all("r" in r["masked_bands"] for r in requests)
        assert snapshot["counters"]["serve.degraded"] == len(dataset)

    def test_concurrent_stream_audit_is_consistent(self, engine, dataset, tmp_path):
        """Four threads audit at once, as the daemon's scoring thread and
        a wedged one it replaced do; eval mode is pinned first, as the daemon pins it."""
        import threading

        engine.pipeline.cnn.eval()
        engine.pipeline.classifier.eval()
        bounds = np.linspace(0, len(dataset), 5).astype(int)
        results: list = []
        lock = threading.Lock()

        def score(a, b):
            scored = engine.classify_arrays(
                dataset.pairs[a:b], dataset.visit_mjd[a:b], start_index=a
            )
            with lock:
                results.extend(scored)

        directory = tmp_path / "t"
        obs.start(directory)
        try:
            threads = [
                threading.Thread(target=score, args=(a, b))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            obs.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(r.index for r in results) == list(range(len(dataset)))
        n, errors = validate_file(directory / EVENTS_FILE)
        assert errors == []  # no interleaved/torn lines, seq strictly monotonic
        requests = _events(directory, "serve.request")
        assert len(requests) == len(dataset)
        assert len({r["request_id"] for r in requests}) == len(dataset)
        assert sorted(r["index"] for r in requests) == list(range(len(dataset)))

    @pytest.mark.parametrize("scorer", ["engine", "pool2"])
    def test_strict_rejection_carries_request_provenance(
        self, engine, dataset, tmp_path, scorer
    ):
        """A strict stream stops at its culprit (position 2 of one
        8-sample chunk): the samples before it are served and audited,
        and the refusal is recorded once, by the stream, under r2."""
        pairs = dataset.pairs.copy()
        pairs[2:3] = SaturateRegion(size=12)(pairs[2:3])
        damaged = replace(dataset, pairs=pairs)
        directory = tmp_path / "t"
        results = []
        with contextlib.ExitStack() as stack:
            if scorer == "pool2":
                pool = stack.enter_context(
                    ScoringPool(engine=engine, config=PoolConfig(workers=2))
                )
                stream = pool.stream(damaged, batch_size=4, strict=True)
            else:
                stream = engine.stream(damaged, batch_size=8, strict=True)
            obs.start(directory, run_id="run-strict")
            try:
                with pytest.raises(DegradedInputError) as excinfo:
                    for result in stream:
                        results.append(result)
            finally:
                obs.stop()
        assert [r.index for r in results] == [0, 1]
        assert excinfo.value.index == 2
        assert excinfo.value.request_id == "run-strict/r2"
        requests = _events(directory, "serve.request")
        assert sorted(r["request_id"] for r in requests) == [
            "run-strict/r0", "run-strict/r1",
        ]
        rejected = _events(directory, "serve.rejected")
        assert len(rejected) == 1
        assert rejected[0]["request_id"] == "run-strict/r2"
        assert rejected[0]["level"] == "error"
        assert rejected[0]["visit"] == excinfo.value.visit
        assert rejected[0]["reason"] == excinfo.value.reason


class TestDriftLadder:
    def test_clean_silent_all_dropped_flagged(self, dataset, tmp_path):
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        engine = InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))
        engine.fit_drift_baseline(dataset)
        assert engine.drift_monitor is not None

        directory = tmp_path / "t"
        obs.start(directory)
        try:
            for _ in range(8):  # clean traffic: past min_samples, still silent
                engine.classify(dataset)
            assert not engine.drift_monitor.report.flagged
            assert _events(directory, "drift.flagged") == []

            pairs = dataset.pairs
            for band in range(N_BANDS):  # the full dropped-band ladder
                pairs = DropBand(band)(pairs)
            all_dropped = replace(dataset, pairs=pairs)
            for _ in range(10):
                engine.classify(all_dropped)
        finally:
            snapshot = obs.stop()

        assert engine.drift_monitor.report.flagged
        flagged = _events(directory, "drift.flagged")
        assert flagged and flagged[0]["level"] == "warning"
        assert flagged[0]["reasons"]
        assert snapshot["counters"]["drift.flagged"] >= 1
        assert snapshot["gauges"]["drift.score_psi"] > 0.25

    def test_fit_baseline_is_not_production_traffic(self, dataset, tmp_path):
        """Fitting scores the training set without auditing it as served
        samples or feeding the fresh monitor."""
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        engine = InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))
        directory = tmp_path / "t"
        obs.start(directory)
        try:
            baseline = engine.fit_drift_baseline(dataset)
        finally:
            snapshot = obs.stop()
        assert baseline.n == len(dataset)
        assert _events(directory, "serve.request") == []
        assert "serve.requests" not in snapshot["counters"]
        assert engine.drift_monitor.report.n_window == 0

    def test_pool_feeds_the_same_drift_monitor(self, dataset, tmp_path):
        """The ladder through an in-process engine and a two-worker pool
        from one model directory: the same transitions, statistics and
        gauges, because each scorer feeds its served version's monitor."""
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        engine = InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))
        engine.fit_drift_baseline(dataset)
        model_dir = tmp_path / "model"
        engine.save(str(model_dir))

        pairs = dataset.pairs
        for band in range(N_BANDS):
            pairs = DropBand(band)(pairs)
        # Clean, all bands dropped, then clean long enough to refill the
        # window: one flagged and one recovered transition.
        ladder = [dataset.pairs] * 8 + [pairs] * 10 + [dataset.pairs] * 20

        def drive(scorer, directory):
            obs.start(directory)
            try:
                for batch in ladder:
                    scorer.classify_arrays(batch, dataset.visit_mjd)
            finally:
                snapshot = obs.stop()
            transitions = [
                {k: r[k] for k in ("event", "reasons", "n_window", "score_psi",
                                   "score_ks", "flux_psi", "flux_ks")}
                for r in _events(directory)
                if r["event"] in ("drift.flagged", "drift.recovered")
            ]
            gauges = {
                name: value for name, value in snapshot["gauges"].items()
                if name.startswith("drift.")
            }
            return transitions, gauges

        in_process = drive(InferenceEngine.from_directory(str(model_dir)),
                           tmp_path / "engine")
        with ScoringPool(model_source=str(model_dir),
                         config=PoolConfig(workers=2)) as pool:
            pooled = drive(pool, tmp_path / "pool")
        transitions, gauges = in_process
        assert [t["event"] for t in transitions] == [
            "drift.flagged", "drift.recovered",
        ]
        assert transitions[0]["reasons"]
        assert len(gauges) == 4
        assert pooled == in_process

    def test_baseline_persists_through_save_load(self, dataset, tmp_path):
        pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=0)
        engine = InferenceEngine(pipe, prior=FluxPrior.from_dataset(dataset))
        engine.fit_drift_baseline(dataset)
        engine.save(str(tmp_path / "model"))
        reloaded = InferenceEngine.from_directory(str(tmp_path / "model"))
        assert reloaded.drift_monitor is not None
        np.testing.assert_allclose(
            reloaded.drift_baseline.score_probs, engine.drift_baseline.score_probs
        )


#: Share of one classify batch's time each disabled hook may cost.
DISABLED_HOOK_GATE = 0.02


class TestTelemetryOverhead:
    def test_classify_hot_path(self, tmp_path):
        """Telemetry changes no output and its disabled hooks stay cheap.

        Wall-clock A/B timing of the disabled path is hopeless on shared
        runners, so the cost gate is a same-run ratio: the disabled hook
        (one ``obs.active()`` per classify batch) and the disabled
        tracing hook (``trace.span`` returning ``NULL_SPAN``, six per
        batch: three engine stages and three ``nn.conv2d`` layers) are
        microbenchmarked against the batch time measured here.
        """
        n, batch_size = 32, 16
        engine, pairs, mjd = smoke_classify_workload(seed=3, n=n)
        batches = (n + batch_size - 1) // batch_size

        def run():
            results = []
            for start in range(0, n, batch_size):
                results.extend(
                    engine.classify_arrays(
                        pairs[start : start + batch_size],
                        mjd[start : start + batch_size],
                    )
                )
            return results

        assert obs.active() is None
        assert trace_mod.tracer() is None
        for _ in range(2):  # warm caches, allocator and BLAS threads
            run()

        rounds = 4
        times_off, n_events = [], 0
        for index in range(rounds):
            start = time.perf_counter()
            results_off = run()
            times_off.append(time.perf_counter() - start)
            round_dir = tmp_path / f"round{index}"
            obs.start(round_dir, command="telemetry-overhead")
            try:
                results_on = run()
            finally:
                obs.stop()
            n_events += len(_events(round_dir))
            assert [(r.probability, r.degraded) for r in results_on] == [
                (r.probability, r.degraded) for r in results_off
            ]
        assert obs.active() is None, "telemetry session leaked after stop()"
        # At least one event per served sample, plus session bookkeeping.
        assert n_events > n * rounds

        traced_rounds, n_spans = 2, 0
        for index in range(traced_rounds):
            round_dir = tmp_path / f"trace{index}"
            session = obs.start(round_dir, command="telemetry-trace", trace=True)
            try:
                with session.tracer.start_trace(f"overhead/round{index}"):
                    run()
            finally:
                obs.stop()
            n_spans += len(_events(round_dir, trace_mod.SPAN_EVENT))
        # Each traced round records its root plus a span per batch.
        assert n_spans >= traced_rounds * (1 + batches)

        batch_time = min(times_off) / batches
        iterations = 200_000
        start = time.perf_counter()
        for _ in range(iterations):
            if obs.active() is not None:  # pragma: no cover - never taken
                raise AssertionError
        hook_share = (time.perf_counter() - start) / iterations / batch_time
        start = time.perf_counter()
        for _ in range(iterations):
            with trace_mod.span("overhead.hook"):
                pass
        span_share = 6 * (time.perf_counter() - start) / iterations / batch_time
        assert hook_share <= DISABLED_HOOK_GATE, f"obs.active() {hook_share:.2%}"
        assert span_share <= DISABLED_HOOK_GATE, f"6 x trace.span {span_share:.2%}"


class TestCliTelemetry:
    def test_build_train_metrics_round_trip(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        t_build = tmp_path / "t_build"
        t_train = tmp_path / "t_train"
        assert main([
            "build-dataset", "--n-ia", "6", "--n-non-ia", "6", "--no-images",
            "--out", str(ds), "--telemetry", str(t_build),
        ]) == 0
        assert main([
            "train-classifier", "--dataset", str(ds), "--epochs", "2",
            "--out", str(tmp_path / "clf.npz"), "--telemetry", str(t_train),
        ]) == 0
        capsys.readouterr()

        for directory in (t_build, t_train):
            assert main(["metrics", str(directory), "--validate"]) == 0
            out = capsys.readouterr().out
            assert "validated" in out and "schema v" in out
            assert "telemetry report" in out
            assert "events by type" in out
        build_events = {r["event"] for r in _events(t_build)}
        assert {"session.start", "build.start", "build.end", "session.end"} <= build_events
        train_events = {r["event"] for r in _events(t_train)}
        assert "train.epoch" in train_events

    def test_classify_telemetry_and_prometheus(self, engine, dataset, tmp_path, capsys):
        model_dir = tmp_path / "model"
        engine.save(str(model_dir))
        ds = tmp_path / "ds.npz"
        save_dataset(dataset, ds)
        t_serve = tmp_path / "t_serve"
        assert main([
            "classify", "--model", str(model_dir), "--dataset", str(ds),
            "--out", str(tmp_path / "results.jsonl"), "--telemetry", str(t_serve),
        ]) == 0
        n, errors = validate_file(t_serve / EVENTS_FILE)
        assert errors == [] and n >= len(dataset) + 2
        capsys.readouterr()
        assert main(["metrics", str(t_serve)]) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out and "serve.latency_s" in out
        assert main(["metrics", str(t_serve), "--prometheus"]) == 0
        prom = capsys.readouterr().out
        assert 'serve_latency_s_bucket{le="+Inf"}' in prom
        assert "serve_requests" in prom

    def test_reused_telemetry_directory_is_refused(self, engine, dataset, tmp_path, capsys):
        """One directory holds one session: a second run into it exits 2
        before writing anything, so the first run's stream still
        validates and its files are untouched."""
        model_dir = tmp_path / "model"
        engine.save(str(model_dir))
        ds = tmp_path / "ds.npz"
        save_dataset(dataset, ds)
        t_dir = tmp_path / "t"
        argv = [
            "classify", "--model", str(model_dir), "--dataset", str(ds),
            "--out", str(tmp_path / "results.jsonl"), "--telemetry", str(t_dir),
        ]
        assert main(argv) == 0
        first = {
            name: (t_dir / name).read_bytes()
            for name in (EVENTS_FILE, "metrics.json")
        }
        capsys.readouterr()
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(t_dir / EVENTS_FILE) in err
        assert obs.active() is None
        for name, content in first.items():
            assert (t_dir / name).read_bytes() == content
        assert main(["metrics", str(t_dir), "--validate"]) == 0

    def test_strict_exit_2_leaves_terminal_error_event(self, engine, dataset, tmp_path, capsys):
        model_dir = tmp_path / "model"
        engine.save(str(model_dir))
        damaged = replace(dataset, pairs=SaturateRegion(size=12)(dataset.pairs))
        ds = tmp_path / "damaged.npz"
        save_dataset(damaged, ds)
        t_dir = tmp_path / "t"
        assert main([
            "classify", "--model", str(model_dir), "--dataset", str(ds),
            "--strict", "--out", str(tmp_path / "out.jsonl"),
            "--telemetry", str(t_dir),
        ]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err
        errors = _events(t_dir, "cli.error")
        assert len(errors) == 1
        assert errors[0]["exit_code"] == EXIT_BAD_INPUT
        assert errors[0]["index"] == 0
        assert errors[0]["request_id"].endswith("/r0")
        last = _events(t_dir)[-1]
        assert last["event"] == "session.end" and last["status"] == "error"
        assert obs.active() is None  # session closed despite the failure

    def test_metrics_validate_rejects_corrupt_stream(self, tmp_path, capsys):
        t_dir = tmp_path / "t"
        t_dir.mkdir()
        (t_dir / EVENTS_FILE).write_text(
            '{"schema": 1, "ts": 1.0, "seq": 1, "level": "info", "event": "x"}\n'
        )
        assert main(["metrics", str(t_dir), "--validate"]) == EXIT_BAD_INPUT
        assert "neither run_id nor request_id" in capsys.readouterr().err

    def test_metrics_on_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope")]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err
