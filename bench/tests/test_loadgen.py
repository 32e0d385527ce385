import threading
import time

import numpy as np
import pytest

from bench.loadgen import closed_loop, open_loop, poisson_offsets

SERVICE_S = 0.1


class FakeServer:
    """Answers every request after a fixed service time; tracks concurrency."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def connection(self):
        def send(body):
            with self.lock:
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
            time.sleep(SERVICE_S)
            with self.lock:
                self.in_flight -= 1
            return 200, {"body": body}

        return send


def test_open_loop_separates_connection_wait_from_schedule_lag():
    server = FakeServer()
    # Four arrivals 20 ms apart on two connections: the first two go out
    # on time, the last two wait for a connection to come free.
    offsets = [0.0, 0.02, 0.04, 0.06]
    records = open_loop(offsets, [server.connection(), server.connection()], n_bodies=3)

    assert server.max_in_flight == 2
    assert [r.body for r in records] == [0, 1, 2, 0]
    for record in records:
        # Latency runs from the due time: waiting plus service, exactly.
        assert record.latency == pytest.approx(
            record.conn_wait + record.sched_lag + record.service, abs=1e-9
        )
        assert record.service == pytest.approx(SERVICE_S, abs=0.03)
        assert record.conn_wait == 0.0 or record.sched_lag == 0.0
    for early in records[:2]:
        assert early.conn_wait == 0.0
        assert early.sched_lag < 0.02
    for late in records[2:]:
        # Due at 40/60 ms, a connection frees up at about 100/120 ms.
        assert late.sched_lag == 0.0
        assert late.conn_wait == pytest.approx(0.06, abs=0.03)
        assert late.latency == pytest.approx(0.06 + SERVICE_S, abs=0.04)


def test_open_loop_on_time_when_connections_are_free():
    server = FakeServer()
    offsets = [0.0, 0.15, 0.30]
    records = open_loop(offsets, [server.connection(), server.connection()], n_bodies=1)
    assert server.max_in_flight == 1
    assert all(r.conn_wait == 0.0 for r in records)
    assert all(r.latency == pytest.approx(SERVICE_S, abs=0.03) for r in records)


def test_closed_loop_keeps_each_connection_busy():
    server = FakeServer()
    records = closed_loop(0.35, [server.connection(), server.connection()], n_bodies=5)
    assert server.max_in_flight == 2
    assert 6 <= len(records) <= 10
    assert all(r.latency == r.service for r in records)


def test_poisson_offsets_fix_the_count():
    offsets = poisson_offsets(12.0, 10.0, np.random.default_rng(3))
    assert len(offsets) == 120
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 10.0
    assert offsets == poisson_offsets(12.0, 10.0, np.random.default_rng(3))
