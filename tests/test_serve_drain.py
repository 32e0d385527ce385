"""Graceful drain of the real ``repro serve`` process on SIGTERM.

The contract the supervisor relies on: SIGTERM mid-traffic means every
already-admitted request is still answered, the terminal
``serve.drained`` audit record is emitted, and the process exits 0.
"""

import json
import signal
import threading
import time

import pytest

from .helpers import (
    classify_body,
    make_serve_engine,
    make_serve_sample,
    post_classify,
    spawn_serve,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve_model")
    engine = make_serve_engine(seed=0)
    engine.save(str(directory))
    return directory, engine


class TestSubprocessDrain:
    def test_sigterm_answers_in_flight_requests_and_exits_0(self, model_dir):
        directory, engine = model_dir
        pairs, mjd = make_serve_sample(engine, seed=7)
        body = classify_body(pairs, mjd, deadline_ms=30000)
        # A wide batch window keeps requests in flight long enough for
        # SIGTERM to land while they are still queued.
        process, port = spawn_serve(directory, "--batch-deadline-ms", "500")
        try:
            results: list = [None] * 4

            def fire(k):
                results[k] = post_classify(port, body, timeout=30.0)

            threads = [
                threading.Thread(target=fire, args=(k,), daemon=True)
                for k in range(len(results))
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)  # requests admitted, batch window still open
            process.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=30.0)

            # Every admitted request was answered before exit.
            assert all(result is not None for result in results)
            for status, doc in results:
                assert status == 200
                assert doc["result"]["probability"] is not None

            stderr = process.stderr.read()
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

        # Terminal audit record: one serve.drained JSON line on stderr.
        drained = [
            json.loads(line)
            for line in stderr.splitlines()
            if line.startswith("{") and '"serve.drained"' in line
        ]
        assert len(drained) == 1
        assert drained[0]["reason"] == "SIGTERM"
        assert drained[0]["responses"] == 4
        assert drained[0]["exit_code"] == 0

    def test_sigterm_on_idle_daemon_exits_0(self, model_dir):
        directory, _ = model_dir
        process, port = spawn_serve(directory)
        try:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
            stderr = process.stderr.read()
            assert '"serve.drained"' in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
