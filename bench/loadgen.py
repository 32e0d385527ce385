"""Open- and closed-loop load generation over a fixed set of connections.

The generator is transport-agnostic: each connection is a callable
``send(body_index) -> (status, payload)`` owned by one thread, so a
request is in flight on at most ``len(connections)`` connections at once.

Open loop: request ``k`` is *due* at ``offsets[k]`` seconds after the
start.  The first free connection takes the next request in order; if
it is free before the due time it sleeps until then (its oversleep is
the generator's own *schedule lag*), otherwise the request already
waited *for a connection* since it was due.  Latency is measured from
the due time, so a stall is charged to every request it delays.

Closed loop: each connection sends its next request as soon as the
previous response arrives, for a fixed duration.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Send = Callable[[int], tuple[int, object]]

clock = time.perf_counter

#: Seconds between starting the open-loop threads and the first due time.
LEAD_S = 0.05


@dataclass
class Record:
    """One request: times in seconds on the generator's clock."""

    index: int
    body: int
    due: float
    sent: float
    done: float
    conn_wait: float
    sched_lag: float
    status: int
    payload: object

    @property
    def latency(self) -> float:
        """Due time to response."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Send to response."""
        return self.done - self.sent


def poisson_offsets(rate: float, duration: float, rng: np.random.Generator) -> list[float]:
    """``round(rate * duration)`` arrival times of a Poisson process on ``[0, duration)``.

    Conditioned on its count, a Poisson process places its arrivals
    uniformly at random; fixing the count keeps the offered load — and
    so the throughput the run can show — the same for every seed.
    """
    n = max(1, round(rate * duration))
    return sorted(float(t) for t in rng.uniform(0.0, duration, size=n))


def _run(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    offsets: Sequence[float], connections: Sequence[Send], n_bodies: int
) -> list[Record]:
    """Send request ``k`` (body ``k % n_bodies``) at ``offsets[k]``; one record per request."""
    records: list[Record | None] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))
    start = clock() + LEAD_S

    def drive(send: Send) -> None:
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                return
            due = start + offsets[k]
            free = clock()
            if free < due:
                while (remaining := due - clock()) > 0:
                    time.sleep(remaining)
                sent = clock()
                conn_wait, sched_lag = 0.0, sent - due
            else:
                sent = free
                conn_wait, sched_lag = free - due, 0.0
            status, payload = send(k % n_bodies)
            records[k] = Record(
                k, k % n_bodies, due, sent, clock(), conn_wait, sched_lag, status, payload
            )

    _run([threading.Thread(target=drive, args=(send,)) for send in connections])
    return records  # type: ignore[return-value]


def closed_loop(duration: float, connections: Sequence[Send], n_bodies: int) -> list[Record]:
    """Keep every connection busy for ``duration`` seconds; one record per request."""
    records: list[Record] = []
    lock = threading.Lock()
    counter = itertools.count()
    stop_at = clock() + duration

    def drive(send: Send) -> None:
        while clock() < stop_at:
            with lock:
                k = next(counter)
            sent = clock()
            status, payload = send(k % n_bodies)
            record = Record(k, k % n_bodies, sent, sent, clock(), 0.0, 0.0, status, payload)
            with lock:
                records.append(record)

    _run([threading.Thread(target=drive, args=(send,)) for send in connections])
    records.sort(key=lambda record: record.index)
    return records
