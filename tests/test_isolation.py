"""The isolation contract: one raising sample fails alone, on every path.

``repro.serve.engine.isolate`` is the only place a failed batch is split
and re-scored per sample.  Whatever path scores it — the in-process
stream (``repro classify``), the pool-backed stream (``repro classify
--workers N``), both through the one ``stream_isolated`` loop, or the
serving daemon — the same poisoned batch must give the same per-sample
outcome: the culprit fails, its batch-mates get real scores, and the
split counts once.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.runtime.faults import RaiseWorkerOnMarker
from repro.serve import DaemonConfig, PoolConfig, ScoringPool

from .helpers import (
    classify_body,
    make_serve_engine,
    post_classify,
    running_daemon,
)

pytestmark = [pytest.mark.serve, pytest.mark.faults]

#: Magic first-pixel value the tripwire raises on; far outside the
#: N(0, 30) pixel distribution of the batch.
MARKER = 12345.0
CULPRIT = 3
N_SAMPLES = 8


def _poison_error():
    return RuntimeError("poison sample (injected)")


def _tripwire():
    return RaiseWorkerOnMarker(MARKER, _poison_error)


class _ArrayDataset:
    def __init__(self, pairs, mjd):
        self.pairs = pairs
        self.visit_mjd = mjd

    def __len__(self):
        return len(self.pairs)


@pytest.fixture(scope="module")
def engine():
    return make_serve_engine(seed=0)


@pytest.fixture(scope="module")
def batch(engine):
    rng = np.random.default_rng(5)
    v, s = engine._n_used_visits, 40
    pairs = rng.normal(0.0, 30.0, size=(N_SAMPLES, v, 2, s, s)).astype(np.float32)
    pairs[CULPRIT, 0, 0, 0, 0] = MARKER
    mjd = np.tile((57000.0 + np.arange(v) * 0.01).astype(np.float32), (N_SAMPLES, 1))
    return pairs, mjd


def _tripped_engine():
    engine = make_serve_engine(seed=0)
    _tripwire()(engine, 0)
    return engine


def _stream_outcomes(results, counters):
    return (
        [r.error for r in results],
        [r.probability for r in results],
        counters.get("serve.batch_failures", 0),
    )


def _engine_stream(pairs, mjd, tmp_path):
    engine = _tripped_engine()
    obs.start(tmp_path)
    try:
        results = list(engine.stream(_ArrayDataset(pairs, mjd), batch_size=4))
    finally:
        counters = obs.stop()["counters"]
    return _stream_outcomes(results, counters)


def _pool_stream(batch_size):
    """Two workers; each chunk holds ``batch_size x 2`` samples."""

    def run(pairs, mjd, tmp_path):
        obs.start(tmp_path)
        try:
            with ScoringPool(
                engine=make_serve_engine(seed=0),
                config=PoolConfig(workers=2),
                worker_init=_tripwire(),
            ) as pool:
                results = list(
                    pool.stream(_ArrayDataset(pairs, mjd), batch_size=batch_size)
                )
        finally:
            counters = obs.stop()["counters"]
        return _stream_outcomes(results, counters)

    return run


def _daemon(pairs, mjd, tmp_path):
    """Every sample is one request; all of them share one micro-batch."""
    config = DaemonConfig(batch_max_size=N_SAMPLES, batch_deadline_ms=5000.0)
    responses: list = [None] * N_SAMPLES
    with running_daemon(_tripped_engine(), config) as daemon:

        def post(k):
            body = classify_body(pairs[k], mjd[k], deadline_ms=30000)
            responses[k] = post_classify(daemon.port, body)

        threads = [
            threading.Thread(target=post, args=(k,), daemon=True)
            for k in range(N_SAMPLES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        splits = int(daemon.metrics.counter("daemon.poison_batches").value)
    errors, probabilities = [], []
    for status, doc in responses:
        if status == 200:
            errors.append(None)
            probabilities.append(doc["result"]["probability"])
        else:
            assert status == 500 and doc["error"]["type"] == "internal"
            errors.append(doc["error"]["message"])
            probabilities.append(None)
    return errors, probabilities, splits


@pytest.mark.parametrize(
    "path",
    # stream-workers2 is ``classify --workers 2 --batch-size 4``: one
    # 8-sample chunk, one 4-sample shard per worker, the culprit in the
    # first.  pool-stream splits the batch into two 4-sample chunks.
    [_engine_stream, _pool_stream(4), _pool_stream(2), _daemon],
    ids=["stream-workers1", "stream-workers2", "pool-stream", "daemon"],
)
def test_only_the_culprit_fails(path, engine, batch, tmp_path):
    pairs, mjd = batch
    errors, probabilities, splits = path(pairs, mjd, tmp_path)
    assert len(errors) == N_SAMPLES
    assert [e is not None for e in errors] == [i == CULPRIT for i in range(N_SAMPLES)]
    assert "RuntimeError" in errors[CULPRIT]
    assert "poison sample" in errors[CULPRIT]
    # Batch-mates carry exactly the scores of the full clean batch: a
    # sample's score does not depend on the batch it is scored in.  The
    # daemon answers in JSON, which carries the rounded wire values.
    clean = pairs.copy()
    clean[CULPRIT, 0, 0, 0, 0] = 0.0
    want = engine.classify_arrays(clean, mjd)
    for i in range(N_SAMPLES):
        if i != CULPRIT:
            if path is _daemon:
                assert probabilities[i] == want[i].to_dict()["probability"]
            else:
                assert probabilities[i] == want[i].probability
    assert splits == 1
