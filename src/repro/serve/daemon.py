"""Resilient serving daemon: warm pipeline, micro-batching, backpressure.

``repro serve --model DIR --port P`` runs a persistent stdlib-HTTP
server around an :class:`~repro.serve.engine.InferenceEngine`.  The
design goal is not merely "batch fast" but *degrade predictably*: every
admitted request receives exactly one typed response, no matter what
the traffic, the payloads or the scoring thread do.

Request flow
------------
1. **Admission control** — ``POST /classify`` bodies are read under a
   client deadline (dribbling clients get a typed ``slow_client`` 408),
   parsed and shape-validated up front (typed ``bad_request`` 400), then
   admitted into a bounded queue.  A full queue sheds the request with a
   typed ``shed`` 429 + ``Retry-After`` instead of growing unboundedly;
   a draining daemon refuses with a typed ``draining`` 503.
2. **Micro-batching** — a scoring worker coalesces queued requests into
   adaptive batches: it waits at most ``batch_deadline_ms`` from the
   oldest queued request, caps batches at ``batch_max_size``, and groups
   runs of consecutive requests with the same (shape, strict) so one
   engine call serves each run.  Scoring goes
   through :meth:`InferenceEngine.classify_arrays` — the same path as
   ``repro classify`` — and a sample's score does not depend on its
   micro-batch, so responses carry the batch CLI's values exactly.
3. **Per-request deadlines** — each request carries a deadline (its own
   ``deadline_ms`` or the config default).  The handler thread waits at
   most that long and answers a typed ``timeout`` 504 itself; a late
   scoring result finds the request already resolved and is discarded
   (resolution is exactly-once by construction).
4. **Poison isolation** — an exception escaping a scoring batch (strict
   :class:`DegradedInputError`, a payload the validators missed, an
   injected chaos fault) triggers per-sample re-scoring through
   :func:`~repro.serve.engine.isolate`: the poison sample alone gets its
   typed error response while its batch-mates are scored normally.  A
   broken scoring pool is not poison: its group is answered 500 at once
   (or, if a swap retired that pool mid-dispatch, re-scored on the
   version now served).
5. **Watchdog** — one deadline, ``wedge_timeout_s``, per scoring call,
   owned by whoever runs it.  A scoring pool heals its own wedged
   workers at that deadline.  The watchdog guards the in-process
   scoring thread: a batch older than it is answered 504, the thread
   abandoned and replaced after the next delay of :data:`RESTART_DELAYS_S`
   without dropping the accept loop.  An exhausted budget drains with
   exit 4.
6. **Graceful drain** — SIGTERM/SIGINT (or :meth:`ServingDaemon.drain`)
   stops admission, flushes every in-flight batch, emits a terminal
   ``serve.drained`` audit event and exits 0.

Endpoints: ``POST /classify``, ``GET /healthz`` (live/ready/draining),
``GET /metrics`` (Prometheus text exposition via :mod:`repro.obs`).
Responses are stamped with deterministic request ids
(``<run_id>/r<admission_index>``), matching the ids the telemetry
session's per-request audit uses.

Model registry integration
--------------------------
Given a :class:`~repro.registry.ModelRegistry` the daemon closes the
deploy loop (``repro serve --registry DIR``).  Deploy state — the served
``(engine, scorer, version)`` snapshot and the daemon's registry writes
— has one owner, the registry watcher thread; the scoring thread only
*posts* a rollback request and wakes it:

* **hot reload** — the watcher polls ``registry.json``; when the
  production pointer moves it verifies + loads the new version off the
  scoring path (with ``--scoring-workers N`` it also boots a new
  :class:`~repro.serve.pool.ScoringPool` from the version's directory)
  and swaps the snapshot *between* micro-batches, then closes the old
  pool.  The scorer is the engine itself in-process, or the pool; a
  pool serves one model for life.  Each batch captures one snapshot, so
  in-flight work drains on the old scorer, every request is scored
  wholly by a single version and nothing is dropped.  A failed load or
  pool boot (corrupt version dir, bad weights) leaves the current model
  serving and emits a typed ``registry.reload_failed`` event.
* **automatic rollback** — after each scored micro-batch the
  :class:`~repro.registry.RollbackGuard` reads the verdict of the
  served version's :class:`~repro.obs.drift.DriftMonitor`, the one its
  scorer (engine or pool) feeds against the model's committed
  baseline; sustained PSI/KS drift makes the guard trip and the scoring
  thread post a rollback.  The watcher's next tick applies it before
  it re-reads ``registry.json``: it rolls back to the most recently
  retired version, loaded afresh like any promote (quarantining the bad
  one in the registry as ``rolled_back``), and records a
  ``registry.rolled_back`` audit event, all without dropping in-flight
  requests.

A candidate is checked before it is promoted, not here: ``repro models
promote vN --gate DATASET`` compares it with production on a fixed
dataset, so the daemon never loads a version it does not serve.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from .. import obs
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..obs.session import set_workspace_gauges
from ..registry import GuardConfig, ModelRegistry, RegistryError, RollbackGuard
from ..runtime.errors import CorruptArtifactError
from .engine import (
    DegradedInputError,
    InferenceEngine,
    PredictionResult,
    audit_rejection,
    isolate,
)
from .pool import PoolBrokenError, PoolConfig, ScoringPool

__all__ = ["DaemonConfig", "ServingDaemon", "RESTART_DELAYS_S"]

#: Restart budget for wedged in-process scoring threads, the wait (s)
#: before each replacement: two replacements, then the daemon drains
#: with exit code 4.
RESTART_DELAYS_S = (0.05, 0.1)

#: Batch-size histogram buckets (requests per scored micro-batch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: How often the watchdog checks the scoring thread for a wedge.
WATCHDOG_INTERVAL_S = 0.1

#: Longest a drain waits for queued and in-flight work to flush;
#: stragglers past it get typed 503s.
DRAIN_TIMEOUT_S = 10.0

#: Request-id prefix and registry ``by`` tag when no telemetry session
#: is active (under a session, its run id).
DEFAULT_RUN_ID = "serve"


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of the serving daemon; defaults suit a survey alert feed.

    ``queue_depth`` is the hard admission limit — the most requests that
    may wait for a batch slot; beyond it the daemon sheds.  In-flight
    (already batched) requests do not count against it.
    ``wedge_timeout_s`` is the one deadline of a scoring call: the
    pool's gather deadline with ``scoring_workers >= 1``, the
    watchdog's otherwise.  Durations must be finite.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_max_size: int = 16
    batch_deadline_ms: float = 10.0
    queue_depth: int = 64
    request_deadline_ms: float = 2000.0
    client_body_deadline_s: float = 5.0
    max_body_bytes: int = 32 << 20
    strict: bool = False
    wedge_timeout_s: float = 5.0
    #: How often the version watcher re-reads ``registry.json`` (with a
    #: registry attached); a promote becomes live within about one poll.
    reload_poll_s: float = 0.25
    #: Scoring worker *processes*.  0 (the default) scores in-process on
    #: the daemon's scoring thread; N >= 1 scatters each micro-batch
    #: across a :class:`~repro.serve.pool.ScoringPool` of N warm spawned
    #: workers over shared memory, with BLAS threads split N ways.
    scoring_workers: int = 0

    def __post_init__(self) -> None:
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        if not math.isfinite(self.batch_deadline_ms) or self.batch_deadline_ms < 0:
            raise ValueError("batch_deadline_ms must be finite and non-negative")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        for name in ("request_deadline_ms", "client_body_deadline_s",
                     "wedge_timeout_s", "reload_poll_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive")
        if self.scoring_workers < 0:
            raise ValueError("scoring_workers must be >= 0")


def _error_payload(request_id: str | None, kind: str, message: str) -> dict:
    """The typed error body every non-200 response carries."""
    return {
        "request_id": request_id,
        "error": {"type": kind, "message": message},
    }


class _Pending:
    """One admitted request waiting for its exactly-once resolution.

    ``resolve`` is first-writer-wins: the scoring worker, the handler's
    deadline timeout and the watchdog may all try to answer; exactly one
    of them succeeds and the others' payloads are discarded.  The
    handler thread blocks on ``event`` and sends whatever ``status`` /
    ``payload`` won.
    """

    __slots__ = (
        "index", "request_id", "pairs", "mjd", "strict",
        "enqueued", "deadline", "event", "status", "payload", "trace", "_lock",
    )

    def __init__(
        self,
        index: int,
        request_id: str,
        pairs: np.ndarray,
        mjd: np.ndarray,
        strict: bool,
        deadline_s: float,
        trace: "obs_trace.Span | None" = None,
    ) -> None:
        self.index = index
        self.request_id = request_id
        self.pairs = pairs
        self.mjd = mjd
        self.strict = strict
        #: Root span of this request's trace; None when unsampled/off.
        self.trace = trace
        self.enqueued = time.monotonic()
        self.deadline = self.enqueued + deadline_s
        self.event = threading.Event()
        self.status: int | None = None
        self.payload: dict | None = None
        self._lock = threading.Lock()

    def resolve(self, status: int, payload: dict) -> bool:
        """Record the response if unresolved; True when this call won."""
        with self._lock:
            if self.status is not None:
                return False
            self.status = status
            self.payload = payload
        self.event.set()
        return True

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    @property
    def group_key(self) -> tuple:
        """Requests sharing this key can share one ``classify_arrays`` call."""
        return (self.pairs.shape, self.strict)


class _Batcher:
    """Bounded FIFO of pending requests with a batch-coalescing window."""

    def __init__(self, max_depth: int, batch_max: int, batch_deadline_s: float) -> None:
        self.max_depth = max_depth
        self.batch_max = batch_max
        self.batch_deadline_s = batch_deadline_s
        self._items: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def submit(self, factory: Callable[[], _Pending]) -> _Pending | None:
        """Admit ``factory()`` under the depth cap; ``None`` = shed/closed.

        The factory runs under the queue lock, so admission indices are
        assigned in exactly the order requests join the queue —
        deterministic request ids fall out for free.
        """
        with self._cond:
            if self._closed or len(self._items) >= self.max_depth:
                return None
            pending = factory()
            self._items.append(pending)
            self._cond.notify()
            return pending

    def next_batch(self) -> list[_Pending] | None:
        """Block for the next micro-batch; ``None`` once closed and empty.

        Returns as soon as ``batch_max`` requests are queued or the
        *oldest* queued request has waited ``batch_deadline_s`` —
        the adaptive-latency contract: a lone request never waits more
        than one batch deadline for company.
        """
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait(0.05)
            first_enqueued = self._items[0].enqueued
            while len(self._items) < self.batch_max and not self._closed:
                remaining = first_enqueued + self.batch_deadline_s - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            take = min(self.batch_max, len(self._items))
            return [self._items.popleft() for _ in range(take)]

    def waiting(self) -> int:
        return len(self._items)

    def close(self) -> None:
        """Refuse further submissions and wake the worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_remaining(self) -> list[_Pending]:
        """Remove and return whatever is still queued (post-close cleanup)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items


class _ScoringWorker(threading.Thread):
    """The single thread that turns queued requests into scored batches."""

    def __init__(self, daemon: "ServingDaemon", generation: int) -> None:
        super().__init__(name=f"repro-serve-scorer-{generation}", daemon=True)
        self.owner = daemon
        self.generation = generation
        #: Monotonic start of the batch currently being scored (watchdog input).
        self.batch_started: float | None = None
        self.current: list[_Pending] | None = None
        #: Set by the watchdog when this worker is declared wedged; its
        #: remaining resolves become no-ops and it must exit.
        self.abandoned = False

    def run(self) -> None:
        while not self.abandoned:
            batch = self.owner._batcher.next_batch()
            if batch is None:
                return  # drained and closed
            self.current = batch
            self.batch_started = time.monotonic()
            try:
                self._run_batch(batch)
            finally:
                self.current = None
                self.batch_started = None

    # ------------------------------------------------------------------
    def _run_batch(self, batch: list[_Pending]) -> None:
        owner = self.owner
        live: list[_Pending] = []
        for pending in batch:
            if pending.expired:
                if pending.resolve(
                    504,
                    _error_payload(
                        pending.request_id, "timeout",
                        "request deadline expired before scoring",
                    ),
                ):
                    owner.metrics.counter("daemon.timeouts").inc()
                continue
            live.append(pending)
        if not live:
            return
        owner.metrics.counter("daemon.batches").inc()
        owner.metrics.histogram(
            "daemon.batch_size", buckets=_BATCH_SIZE_BUCKETS
        ).observe(len(live))
        tracer = obs_trace.tracer()
        if tracer is not None:
            now = time.monotonic()
            for pending in live:
                tracer.record(
                    "admission.queue_wait", now - pending.enqueued,
                    parent=pending.trace,
                )
            # Batch-level stages attach to the first sampled request:
            # a micro-batch mixes traces, and duplicating the span into
            # every member would double-count the stage table.
            lead = next((p.trace for p in live if p.trace is not None), None)
            tracer.record(
                "batch.form", now - batch[0].enqueued, parent=lead,
                batch_size=len(live), queue_depth=owner._batcher.waiting(),
            )
        # Runs of consecutive admission indices that share a group key:
        # a scorer numbers its results from the group's first index, so
        # a group must hold exactly the indices it answers.
        groups: list[list[_Pending]] = []
        for pending in live:
            if (
                groups
                and groups[-1][-1].group_key == pending.group_key
                and groups[-1][-1].index + 1 == pending.index
            ):
                groups[-1].append(pending)
            else:
                groups.append([pending])
        for group in groups:
            self._score(group)

    def _score(self, group: list[_Pending]) -> None:
        """Score one shape-uniform group; isolate poison members on failure."""
        owner = self.owner

        def note_poison(exc: Exception) -> None:
            owner.metrics.counter("daemon.poison_batches").inc()
            owner._emit(
                "serve.poison_batch",
                level="warning",
                message=f"batch of {len(group)} failed ({exc}); re-scoring "
                "each sample alone",
                n_samples=len(group),
                error_type=type(exc).__name__,
            )

        try:
            outcomes = list(isolate(
                lambda a, b: owner._score_group(group[a:b]),
                len(group),
                on_split=note_poison,
            ))
        except PoolBrokenError as exc:
            # Not a poison batch: the pool is gone for every member alike,
            # and the daemon is already draining with exit code 4.
            outcomes = [exc] * len(group)
        for pending, outcome in zip(group, outcomes):
            if isinstance(outcome, Exception):
                status, payload = owner._failure_response(pending, outcome)
                if pending.resolve(status, payload):
                    owner.metrics.counter("daemon.request_errors").inc()
                continue
            payload = {"request_id": pending.request_id, "result": outcome.to_dict()}
            if pending.resolve(200, payload):
                owner.metrics.counter("daemon.responses").inc()
                owner._latency_hist.observe(time.monotonic() - pending.enqueued)
            else:
                # The handler already answered 504; the score is discarded.
                owner.metrics.counter("daemon.late_results").inc()


class _Watchdog(threading.Thread):
    """Replaces a wedged in-process scoring thread (never runs with a pool)."""

    def __init__(self, daemon: "ServingDaemon") -> None:
        super().__init__(name="repro-serve-watchdog", daemon=True)
        self.owner = daemon
        self.stop_event = threading.Event()

    def run(self) -> None:
        owner = self.owner
        while not self.stop_event.wait(WATCHDOG_INTERVAL_S):
            worker = owner._worker
            started = worker.batch_started
            if started is None:
                continue
            if time.monotonic() - started > owner.config.wedge_timeout_s:
                owner._replace_wedged_worker(worker)


class _RegistryWatcher(threading.Thread):
    """The one thread that changes the daemon's deploy state.

    Each tick runs the daemon's ``_sync_with_registry``: the rollback
    requests the scoring thread posted, then a reconcile with
    ``registry.json``.  A tick starts every ``reload_poll_s``, or as
    soon as a request is posted; until the daemon drains.
    """

    def __init__(self, daemon: "ServingDaemon") -> None:
        super().__init__(name="repro-serve-registry", daemon=True)
        self.owner = daemon

    def run(self) -> None:
        owner = self.owner
        while True:
            owner._deploy_wake.wait(owner.config.reload_poll_s)
            # Cleared before the tick reads the posted requests, so a
            # request posted during the tick wakes the next one.
            owner._deploy_wake.clear()
            if owner._draining:
                return
            owner._sync_with_registry()


class _DaemonServer(ThreadingHTTPServer):
    # block_on_close: server_close() joins live handler threads, so every
    # admitted request's response hits the wire before the process exits.
    # The per-connection timeout on _Handler bounds how long an idle
    # keep-alive connection can delay that join.
    daemon_threads = True
    block_on_close = True
    #: Admission control must happen at the HTTP layer (typed 429s), not
    #: in the kernel: the default listen backlog of 5 silently resets
    #: connections under burst load before the daemon can answer them.
    request_queue_size = 128
    #: Back-reference installed by ServingDaemon.start().
    owner: "ServingDaemon"


class _BodyError(Exception):
    """A refused request body: its status, typed error kind and message."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    #: Socket timeout for the request line / idle keep-alive gaps, so a
    #: silent connection cannot pin its handler thread (and the
    #: block_on_close join) forever.
    timeout = 10.0
    #: TCP_NODELAY: headers and body go out as two writes, and Nagle
    #: would hold the body until the client's delayed ACK (up to 40 ms)
    #: on a keep-alive connection.
    disable_nagle_algorithm = True

    # Telemetry owns request logging; the default stderr chatter would
    # swamp the drain test's pipe.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> int:
        body = json.dumps(payload, separators=(",", ":")).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the response is typed either way
        return len(body)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        owner = self.server.owner
        started = time.monotonic()
        if self.path == "/healthz":
            status, payload = owner.health()
            n_bytes = self._send_json(status, payload)
        elif self.path == "/metrics":
            text = owner.prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(text)))
            self.end_headers()
            self.wfile.write(text)
            status, n_bytes = 200, len(text)
        else:
            status = 404
            n_bytes = self._send_json(
                404, _error_payload(None, "not_found", f"no route {self.path}")
            )
        owner._note_access(
            "GET", self.path, status, n_bytes, time.monotonic() - started
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        owner = self.server.owner
        started = time.monotonic()
        if self.path != "/classify":
            n_bytes = self._send_json(
                404, _error_payload(None, "not_found", f"no route {self.path}")
            )
            owner._note_access(
                "POST", self.path, 404, n_bytes, time.monotonic() - started
            )
            return
        try:
            raw = self._read_body()
        except _BodyError as exc:
            if exc.status == 408:
                # A dribbling client: its connection is not reused.
                owner.metrics.counter("daemon.slow_clients").inc()
                self.close_connection = True
            else:
                owner.metrics.counter("daemon.bad_requests").inc()
            n_bytes = self._send_json(
                exc.status, _error_payload(None, exc.kind, str(exc))
            )
            owner._note_access(
                "POST", self.path, exc.status, n_bytes, time.monotonic() - started
            )
            return
        except (ConnectionError, TimeoutError, OSError):
            self.close_connection = True
            return  # client vanished mid-body; nothing was admitted
        read_s = time.monotonic() - started
        status, payload, headers = owner.handle_classify(raw, read_s=read_s)
        n_bytes = self._send_json(status, payload, headers)
        if status >= 400:
            # Successful classifies already leave a full audit trail
            # (request id in the payload, spans when traced); the access
            # log covers what that trail misses — refusals and errors.
            owner._note_access(
                "POST", self.path, status, n_bytes,
                time.monotonic() - started,
                request_id=payload.get("request_id"),
            )

    def _read_body(self) -> bytes:
        """Read the full body under the daemon's client deadline.

        Chunked reads bound a *dribbling* client (each chunk lands fast
        but the body takes forever); the socket timeout bounds a fully
        stalled one.  Either way the handler thread is free again within
        ``client_body_deadline_s`` + one socket timeout.
        """
        owner = self.server.owner
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _BodyError(411, "length_required", "Content-Length is required")
        try:
            length = int(raw_length)
        except ValueError:
            raise _BodyError(400, "bad_request", f"bad Content-Length {raw_length!r}")
        if length < 0:
            raise _BodyError(400, "bad_request", "negative Content-Length")
        if length > owner.config.max_body_bytes:
            raise _BodyError(
                413, "too_large",
                f"body of {length} bytes exceeds the "
                f"{owner.config.max_body_bytes}-byte cap",
            )
        deadline = time.monotonic() + owner.config.client_body_deadline_s
        chunks: list[bytes] = []
        remaining = length
        while remaining > 0:
            time_left = deadline - time.monotonic()
            if time_left <= 0:
                raise self._slow_client()
            # read1 = at most one underlying recv, so a dribbling client
            # cannot pin us inside a single blocking read past the
            # deadline; the socket timeout bounds a fully stalled one.
            self.connection.settimeout(time_left)
            try:
                data = self.rfile.read1(min(remaining, 65536))
            except (TimeoutError, OSError):
                raise self._slow_client()
            if not data:
                raise _BodyError(
                    400, "bad_request", "client closed the connection mid-body"
                )
            chunks.append(data)
            remaining -= len(data)
        # Restore the base timeout: the dwindling per-read timeout must
        # not bound the response write or the next keep-alive request.
        self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def _slow_client(self) -> _BodyError:
        deadline_s = self.server.owner.config.client_body_deadline_s
        return _BodyError(
            408, "slow_client", f"request body did not arrive within {deadline_s}s"
        )


class ServingDaemon:
    """The persistent server wrapping one warm :class:`InferenceEngine`.

    Lifecycle::

        daemon = ServingDaemon(engine, DaemonConfig(port=8350))
        daemon.start()                  # binds, spawns worker/watchdog/accept
        daemon.install_signal_handlers()  # SIGTERM/SIGINT -> graceful drain
        exit_code = daemon.wait()       # blocks until drained; 0 or 4

    Tests drive it in-process: ``start()``, talk HTTP to ``daemon.port``,
    then ``drain()``.  ``fault_hook(batch_index, n_samples)`` is the
    chaos seam — the deterministic injectors in :mod:`repro.runtime.faults`
    (:class:`FailBatch`, :class:`WedgeBatch`) plug in here.

    With ``registry`` set the daemon serves the registry's *production*
    version (pass ``engine=None`` to have it loaded here), hot-reloads
    on promote and auto-rolls-back per ``guard`` (a
    :class:`~repro.registry.GuardConfig`).  ``reload_hook
    (engine, version)`` runs after every registry load — the seam the
    chaos suite uses to poison a specific version's scores
    (:class:`~repro.runtime.faults.ShiftScores`).
    """

    def __init__(
        self,
        engine: InferenceEngine | None = None,
        config: DaemonConfig | None = None,
        fault_hook: Callable[[int, int], None] | None = None,
        registry: ModelRegistry | None = None,
        guard: GuardConfig | None = None,
        reload_hook: Callable[[InferenceEngine, str], None] | None = None,
        pool: ScoringPool | None = None,
    ) -> None:
        self.config = config or DaemonConfig()
        self.fault_hook = fault_hook
        self.registry = registry
        self.reload_hook = reload_hook
        #: Pool mode: every served version is scored by a pool of this
        #: config.  The first pool is built in start() when
        #: ``config.scoring_workers > 0``, or injected here by tests.
        self._pool_config: PoolConfig | None = None
        if pool is not None:
            self._pool_config = pool.config
        elif self.config.scoring_workers > 0:
            self._pool_config = PoolConfig(
                workers=self.config.scoring_workers,
                task_timeout_s=self.config.wedge_timeout_s,
            )
        session = obs.active()
        self.metrics: MetricsRegistry = (
            session.metrics if session is not None else MetricsRegistry()
        )
        self.run_id = session.run_id if session is not None else DEFAULT_RUN_ID
        # End-to-end latency histogram (DEFAULT_LATENCY_BUCKETS_S).
        self._latency_hist = self.metrics.histogram("daemon.latency_s")
        # Registry / deploy state.  Only the registry watcher changes
        # it (after start()); _engine_lock guards the read and the
        # replacement of the served (engine, scorer, version) snapshot.
        # The scoring thread asks for a rollback through _post_rollback().
        self._engine_lock = threading.Lock()
        self._failed_production: str | None = None
        self._failed_rollback: str | None = None
        self._guard: RollbackGuard | None = (
            RollbackGuard(guard) if registry is not None else None
        )
        #: Rollbacks for the watcher: version -> reason.
        self._posted: dict[str, str] = {}
        self._posted_lock = threading.Lock()
        self._deploy_wake = threading.Event()
        version = registry.production() if registry is not None else None
        if engine is None:
            if registry is None:
                raise ValueError("ServingDaemon needs an engine or a registry")
            if version is None:
                raise RegistryError(
                    "registry has no production version; "
                    "`repro models promote` one first"
                )
            engine = self._load_version(version)
        #: What scores the next batch: ``(engine, scorer, version)``,
        #: where the scorer is the engine itself in-process, or the pool
        #: (from start()) that serves the same version.
        self._served: tuple[InferenceEngine, InferenceEngine | ScoringPool,
                            str | None] = (
            engine, pool if pool is not None else engine, version
        )
        self._batcher = _Batcher(
            self.config.queue_depth,
            self.config.batch_max_size,
            self.config.batch_deadline_ms / 1000.0,
        )
        self._admitted = 0
        self._batch_counter = 0
        self._batch_lock = threading.Lock()
        #: EWMA of the scoring worker's drain rate in requests/s, fed by
        #: _note_drained() after every scored group; None until the first
        #: batch completes.  Sizes the 429 Retry-After header.
        self._drain_rate: float | None = None
        self._drain_rate_lock = threading.Lock()
        self._restart_lock = threading.RLock()  # re-entered on a spent budget
        self._restart_delays = iter(RESTART_DELAYS_S)
        self._budget_spent = False
        self._worker_generation = 0
        self._draining = False
        self._drain_lock = threading.Lock()
        self._done = threading.Event()
        self._exit_code = 0
        self._server: _DaemonServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._worker: _ScoringWorker | None = None
        self._watchdog: _Watchdog | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        """The served version's engine (validation, eval mode)."""
        return self._served[0]

    @property
    def _engine_version(self) -> str | None:
        return self._served[2]

    @property
    def _pool(self) -> ScoringPool | None:
        """The served scoring pool; ``None`` when scoring in-process."""
        engine, scorer, _ = self._served
        return None if scorer is engine else scorer

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("daemon not started")
        return self._server.server_address[1]

    def start(self) -> None:
        """Bind the port and spawn the worker, watchdog and accept threads."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        # Pin eval mode before any traffic: predict() must not toggle
        # train/eval while handler threads are alive.
        self.engine.pipeline.cnn.eval()
        self.engine.pipeline.classifier.eval()
        self._start_pool()
        self._server = _DaemonServer(
            (self.config.host, self.config.port), _Handler
        )
        self._server.owner = self
        self._worker = _ScoringWorker(self, self._worker_generation)
        self._worker.start()
        if self._pool is None:  # a pool owns the deadline of its calls
            self._watchdog = _Watchdog(self)
            self._watchdog.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        self._serve_thread.start()
        if self.registry is not None:
            # Pick up a promote made since the engine loaded, then poll.
            self._sync_with_registry()
            _RegistryWatcher(self).start()
        self._emit(
            "serve.listening",
            message=f"serving on {self.config.host}:{self.port}",
            host=self.config.host,
            port=self.port,
            queue_depth=self.config.queue_depth,
            batch_max_size=self.config.batch_max_size,
            model_version=self._engine_version,
            scoring_workers=(
                self._pool.config.workers if self._pool is not None else 0
            ),
        )

    def _start_pool(self) -> None:
        """Boot the first scoring pool (pool mode) before traffic arrives.

        Registry mode hands workers the production version's directory,
        as every later swap does for its version, while engine mode
        persists the live engine to a pool-owned temp directory.  A pool
        that cannot boot fails ``start()`` outright: better a loud
        refusal than a daemon that silently serves single-process at
        N-times the advertised latency.  An injected (test-seam) pool is
        started here too when it isn't already; its own config is
        authoritative — it is what /healthz and the ``pool.workers``
        gauge report, and what every swap's pool is built with.
        """
        if self._pool_config is None:
            return
        engine, scorer, version = self._served
        if scorer is engine:
            if self.registry is not None and version is not None:
                scorer = ScoringPool(
                    model_source=self.registry.path(version),
                    config=self._pool_config,
                )
            else:
                scorer = ScoringPool(engine=engine, config=self._pool_config)
        if not scorer.started:
            scorer.start()
        self._served = (engine, scorer, version)
        self.metrics.gauge("pool.workers").set(self._pool_config.workers)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _on_signal(signum: int, frame: object) -> None:
            threading.Thread(
                target=self.drain,
                kwargs={"reason": signal.Signals(signum).name},
                name="repro-serve-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def wait(self) -> int:
        """Block until the daemon has drained; returns the exit code."""
        self._done.wait()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._server is not None:
            self._server.server_close()
        return self._exit_code

    def drain(self, reason: str = "requested", exit_code: int | None = None) -> int:
        """Stop admitting, flush in-flight work, stop the server; idempotent.

        Returns the daemon exit code (0 for a clean drain, 4 when a spent
        restart or respawn budget forced the drain).  Safe to call from any
        thread except the accept thread.
        """
        with self._drain_lock:
            if self._draining:
                self._done.wait()
                return self._exit_code
            self._draining = True
        if exit_code is not None:
            self._exit_code = exit_code
        self.metrics.gauge("daemon.draining").set(1)
        self._emit("serve.draining", message=f"drain started ({reason})", reason=reason)
        self._deploy_wake.set()  # the registry watcher exits

        # Flush: the worker keeps consuming until the queue is empty and
        # nothing is mid-score, bounded by the drain timeout.
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while time.monotonic() < deadline:
            worker = self._worker
            if self._batcher.waiting() == 0 and (
                worker is None or worker.abandoned or worker.current is None
            ):
                break
            time.sleep(0.02)
        self._batcher.close()
        for pending in self._batcher.drain_remaining():
            # Only reachable when the flush timed out (e.g. a dead worker):
            # stragglers still get a typed response rather than silence.
            if pending.resolve(
                503,
                _error_payload(
                    pending.request_id, "draining",
                    "daemon drained before this request could be scored",
                ),
            ):
                self.metrics.counter("daemon.drain_refused").inc()
        if self._watchdog is not None:
            self._watchdog.stop_event.set()
        worker = self._worker
        if worker is not None and not worker.abandoned:
            worker.join(timeout=2.0)
        pool = self._pool  # a swap racing this drain closes its own pool
        if pool is not None:
            pool.close()
        if self._server is not None:
            self._server.shutdown()
        self._emit_terminal(reason)
        self._done.set()
        return self._exit_code

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def handle_classify(
        self, raw: bytes, read_s: float = 0.0
    ) -> tuple[int, dict, dict[str, str] | None]:
        """Admit, wait and answer one ``/classify`` request body.

        ``read_s`` is how long the handler spent reading the body off
        the socket; a sampled trace's root span is backdated by it and
        gets an ``http.read`` child, so the waterfall starts at the
        first byte rather than at admission.
        """
        if self._draining:
            return (
                503,
                _error_payload(None, "draining", "daemon is draining; retry elsewhere"),
                None,
            )
        try:
            pairs, mjd, strict, deadline_s = self._parse_sample(raw)
        except ValueError as exc:
            self.metrics.counter("daemon.bad_requests").inc()
            return 400, _error_payload(None, "bad_request", str(exc)), None

        tracer = obs_trace.tracer()

        def _admit() -> _Pending:
            index = self._admitted
            self._admitted += 1
            request_id = f"{self.run_id}/r{index}"
            trace = None
            if isinstance(tracer, obs_trace.Tracer):
                trace = tracer.start_trace(
                    request_id,
                    t_offset_s=read_s,
                    n_visits=int(mjd.shape[0]),
                    deadline_ms=round(deadline_s * 1000.0, 3),
                )
                if read_s > 0.0:
                    tracer.record("http.read", read_s, parent=trace)
            return _Pending(
                index,
                request_id,
                pairs,
                mjd,
                strict,
                deadline_s,
                trace=trace,
            )

        pending = self._batcher.submit(_admit)
        if pending is None:
            if self._draining:
                return (
                    503,
                    _error_payload(None, "draining", "daemon is draining"),
                    None,
                )
            self.metrics.counter("daemon.shed").inc()
            return (
                429,
                _error_payload(
                    None, "shed",
                    f"admission queue full at {self.config.queue_depth}; retry later",
                ),
                {"Retry-After": self._retry_after()},
            )
        self.metrics.counter("daemon.admitted").inc()
        self.metrics.gauge("daemon.queue_depth").set(self._batcher.waiting())

        remaining = pending.deadline - time.monotonic()
        if not pending.event.wait(max(remaining, 0.0)):
            if pending.resolve(
                504,
                _error_payload(
                    pending.request_id, "timeout",
                    f"no result within the {deadline_s * 1000:.0f}ms deadline",
                ),
            ):
                self.metrics.counter("daemon.timeouts").inc()
        assert pending.status is not None and pending.payload is not None
        if pending.trace is not None:
            pending.trace.end(status=pending.status)
        return pending.status, pending.payload, None

    def _parse_sample(
        self, raw: bytes
    ) -> tuple[np.ndarray, np.ndarray, bool, float]:
        """Decode and shape-validate one request body; ValueError = 400."""
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ValueError("body must be a JSON object")
        missing = [key for key in ("pairs", "mjd") if key not in doc]
        if missing:
            raise ValueError(f"body is missing required field(s): {missing}")
        try:
            pairs = np.asarray(doc["pairs"], dtype=np.float32)
            mjd = np.asarray(doc["mjd"], dtype=np.float32)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"'pairs'/'mjd' are not numeric arrays: {exc}")
        if pairs.ndim != 4:
            raise ValueError(
                f"'pairs' must be one (V, 2, S, S) sample, got shape {pairs.shape}"
            )
        if mjd.ndim != 1:
            raise ValueError(f"'mjd' must be a (V,) vector, got shape {mjd.shape}")
        strict = bool(doc.get("strict", self.config.strict))
        deadline_ms = doc.get("deadline_ms", self.config.request_deadline_ms)
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            raise ValueError(f"'deadline_ms' must be a number, got {deadline_ms!r}")
        if not 1.0 <= deadline_ms <= 600_000.0:
            raise ValueError("'deadline_ms' must be in [1, 600000]")
        # Same up-front contract as classify_arrays — shape problems are
        # the *request's* fault and must never reach a shared batch.
        checked_pairs, checked_mjd = self.engine._validate_batch(
            pairs[None], mjd[None]
        )
        return checked_pairs[0], checked_mjd[0], strict, deadline_ms / 1000.0

    # ------------------------------------------------------------------
    # Scoring (called from the worker thread)
    # ------------------------------------------------------------------
    def _next_batch_index(self) -> int:
        with self._batch_lock:
            index = self._batch_counter
            self._batch_counter += 1
            return index

    def _score_group(self, group: list[_Pending]) -> list[PredictionResult]:
        batch_index = self._next_batch_index()
        if self.fault_hook is not None:
            self.fault_hook(batch_index, len(group))
        pairs = np.stack([pending.pairs for pending in group])
        mjd = np.stack([pending.mjd for pending in group])
        started = time.monotonic()
        # The scoring stage attaches to the first traced member's trace
        # (a shape group can mix sampled and unsampled requests); the
        # ambient push makes every nested stage — engine spans in
        # process, pool scatter/gather and worker.compute across the
        # pipe — parent under it without threading spans through calls.
        trace_parent = next(
            (pending.trace for pending in group if pending.trace is not None),
            None,
        )
        with obs_trace.span(
            "daemon.score", parent=trace_parent,
            batch_index=batch_index, n_samples=len(group),
        ):
            # One consistent (engine, scorer, version) snapshot per
            # batch: a swap that lands mid-score only affects the *next*
            # batch, so every request is scored wholly by a single
            # version, and the outgoing scorer finishes its in-flight
            # work before the watcher drops (or closes) it.
            lock_from = time.monotonic()
            with self._engine_lock:
                obs_trace.record("engine.lock_wait", time.monotonic() - lock_from)
                _, scorer, version = self._served
            while True:
                try:
                    results = scorer.classify_arrays(
                        pairs, mjd, strict=group[0].strict,
                        start_index=group[0].index,
                    )
                    break
                except PoolBrokenError:
                    # A swap closes the old pool after publishing its
                    # successor, which breaks a dispatch that outlives
                    # the close's grace: score the group on the served
                    # scorer.  A broken *served* pool spent its budget.
                    retired = scorer
                    with self._engine_lock:
                        _, scorer, version = self._served
                    if scorer is retired:
                        self._drain_on_spent_budget(
                            "serve.pool_broken",
                            "scoring pool respawn budget exhausted; draining",
                            "pool_failure",
                        )
                        raise
            monitor = scorer.drift_monitor
        self._note_drained(len(group), time.monotonic() - started)
        if version is not None:
            self.metrics.counter(f"daemon.served.{version}").inc(len(results))
        if monitor is not None and self._guard is not None:
            # The verdict of the window this group's scorer just fed.
            report = monitor.report
            if self._guard.note_drift(report.flagged) and version is not None:
                self._post_rollback(
                    version,
                    f"sustained drift on {version}: {'; '.join(report.reasons)}",
                )
        return results

    #: EWMA weight of the newest batch's drain-rate observation.
    _DRAIN_RATE_ALPHA = 0.3

    def _note_drained(self, n_requests: int, elapsed_s: float) -> None:
        """Fold one scored group into the drain-rate EWMA (requests/s)."""
        if n_requests <= 0:
            return
        rate = n_requests / max(elapsed_s, 1e-6)
        with self._drain_rate_lock:
            if self._drain_rate is None:
                self._drain_rate = rate
            else:
                self._drain_rate += self._DRAIN_RATE_ALPHA * (rate - self._drain_rate)
            self.metrics.gauge("daemon.drain_rate_rps").set(round(self._drain_rate, 3))

    def _retry_after(self) -> str:
        """Seconds a shed client should back off, from the observed drain rate.

        Queue depth divided by the drain-rate EWMA, rounded up and
        clamped to [1, 30] — a full queue behind a slow model tells
        bursty clients to stay away proportionally longer instead of
        hammering back after the old hardcoded 1 second.  Before any
        batch has been scored the conservative floor of 1s applies.
        """
        with self._drain_rate_lock:
            rate = self._drain_rate
        if rate is None or rate <= 0.0:
            return "1"
        backlog = max(self._batcher.waiting(), 1)
        return str(max(1, min(30, math.ceil(backlog / rate))))

    def _failure_response(
        self, pending: _Pending, exc: Exception
    ) -> tuple[int, dict]:
        """Map a single-sample scoring failure to its typed response.

        A strict refusal is recorded here, once, as the 422 it becomes
        (:func:`~repro.serve.engine.audit_rejection`).
        """
        if isinstance(exc, DegradedInputError):
            audit_rejection(exc)
            return 422, _error_payload(pending.request_id, "degraded", str(exc))
        if isinstance(exc, (ValueError, KeyError, TypeError)):
            return 400, _error_payload(pending.request_id, "bad_request", str(exc))
        self._emit(
            "serve.request_error",
            level="error",
            message=f"request {pending.request_id} failed: {exc}",
            request_id=pending.request_id,
            error_type=type(exc).__name__,
        )
        return 500, _error_payload(
            pending.request_id, "internal", f"{type(exc).__name__}: {exc}"
        )

    # ------------------------------------------------------------------
    # Model registry: hot reload, automatic rollback
    # ------------------------------------------------------------------
    def _load_version(self, version: str) -> InferenceEngine:
        """Verify + load one registry version into a warm engine.

        In pool mode the engine only validates requests: the version's
        pool holds its drift monitor (and warns when the directory has
        no baseline), so the engine is built without one.
        """
        assert self.registry is not None
        self.registry.verify(version)
        path = self.registry.path(version)
        if self._pool_config is None:
            engine = InferenceEngine.from_directory(path)
        else:
            engine = InferenceEngine.from_directory_unmonitored(path)
        engine.pipeline.cnn.eval()
        engine.pipeline.classifier.eval()
        if self.reload_hook is not None:
            self.reload_hook(engine, version)
        return engine

    def _sync_with_registry(self) -> None:
        """One watcher tick: apply posted requests, then reconcile with
        the registry state file."""
        assert self.registry is not None
        with self._posted_lock:
            posted, self._posted = self._posted, {}
        for version, reason in posted.items():
            self._auto_rollback(version, reason)
        try:
            state = self.registry.state()
        except Exception as exc:  # noqa: BLE001 - keep serving on a bad state file
            self._note_reload_failure(None, "state", exc)
            return
        production = state.get("production")
        if (
            production is not None
            and production != self._engine_version
            and production != self._failed_production
        ):
            self._reload_production(production)

    def _load_served(
        self, version: str
    ) -> tuple[InferenceEngine, InferenceEngine | ScoringPool]:
        """Load ``version`` with the scorer that will serve it: the
        engine itself, or in pool mode a pool booted from the version's
        directory (a pool whose start fails leaves no worker behind)."""
        engine = self._load_version(version)
        if self._pool_config is None:
            return engine, engine
        pool = ScoringPool(
            model_source=self.registry.path(version), config=self._pool_config
        )
        pool.start()
        return engine, pool

    def _reload_production(self, version: str) -> None:
        """Hot-swap to a newly promoted version; exactly-once per version."""
        try:
            engine, scorer = self._load_served(version)
        except Exception as exc:  # noqa: BLE001 - typed event, keep serving
            # Remember the bad version so one broken promote logs one
            # typed failure instead of one per poll tick.
            self._failed_production = version
            self._note_reload_failure(version, "production", exc)
            return
        self._failed_production = None
        self._swap(engine, scorer, version)

    def _swap(self, engine: InferenceEngine,
              scorer: InferenceEngine | ScoringPool, version: str) -> None:
        """Publish a loaded version (registry watcher only), then close
        the pool it replaces.

        Only the snapshot replacement holds ``_engine_lock``: the load
        and pool boot ran before it, the old pool's close runs after it.
        A batch still in flight on the old pool gets ``close()``'s 2 s
        grace; past it the dispatch breaks and the scoring thread
        re-scores that group on the new snapshot.  The new version's
        scorer brings its own empty drift monitor.
        """
        with self._engine_lock:
            draining = self._draining
            if not draining:
                previous, self._served = self._served, (engine, scorer, version)
        if draining:  # drain() closes the served pool, not this one
            if scorer is not engine:
                scorer.close()
            return
        previous_engine, previous_scorer, previous_version = previous
        if self._guard is not None:
            self._guard.reset_drift()
        self._failed_rollback = None
        self.metrics.counter("daemon.reloads").inc()
        self._emit(
            "registry.reloaded",
            message=f"now serving {version} (was {previous_version})",
            version=version,
            previous=previous_version,
        )
        if previous_scorer is not previous_engine:
            previous_scorer.close()

    def _note_reload_failure(self, version: str | None, role: str,
                             exc: Exception) -> None:
        self.metrics.counter("daemon.reload_failures").inc()
        self._emit(
            "registry.reload_failed",
            level="error",
            message=f"failed to load {role} version {version}: {exc}",
            version=version,
            role=role,
            error_type=type(exc).__name__,
        )

    def _post_rollback(self, version: str, reason: str) -> None:
        """Ask the registry watcher to roll production back from
        ``version``, and wake it.

        The scoring thread never changes deploy state itself: it posts
        here and keeps serving (it never blocks on a model load).  The
        first request per version wins until the watcher's next tick
        applies it.
        """
        with self._posted_lock:
            self._posted.setdefault(version, reason)
        self._deploy_wake.set()

    def _auto_rollback(self, bad_version: str, reason: str) -> None:
        """Roll production back from ``bad_version`` (registry watcher only)."""
        assert self.registry is not None
        if self._engine_version != bad_version:
            return  # already swapped away from the flagged version
        if self._failed_rollback == bad_version:
            return  # sustained drift re-posts; one refusal per served version
        try:
            # ``expected``: an operator may have promoted another version
            # since the last tick; that one was never served here.
            quarantined, restored = self.registry.rollback(
                reason=reason, by=f"daemon:{self.run_id}", expected=bad_version
            )
        except Exception as exc:  # noqa: BLE001 - the watcher must survive
            # A refusal (nothing to restore, production moved on, a
            # corrupt restore target) repeats until the next swap, so it
            # is memoed; a bad state file is not.
            if isinstance(exc, RegistryError) or (
                isinstance(exc, CorruptArtifactError)
                and exc.path != self.registry.state_path
            ):
                self._failed_rollback = bad_version
            self._emit(
                "registry.rollback_failed",
                level="error",
                message=f"cannot roll back {bad_version}: {exc}",
                version=bad_version,
            )
            return
        try:
            engine, scorer = self._load_served(restored)
        except Exception as exc:  # noqa: BLE001
            self._note_reload_failure(restored, "rollback", exc)
            return
        self._swap(engine, scorer, restored)
        self.metrics.counter("daemon.rollbacks").inc()
        self._emit(
            "registry.rolled_back",
            level="warning",
            message=f"rolled back {quarantined} -> {restored}: {reason}",
            version=quarantined,
            restored=restored,
            role="production",
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Watchdog support
    # ------------------------------------------------------------------
    def _replace_wedged_worker(self, worker: _ScoringWorker) -> None:
        """Abandon a wedged worker, answer its batch, start a replacement."""
        with self._restart_lock:
            if self._worker is not worker or worker.abandoned:
                return
            worker.abandoned = True
            for pending in list(worker.current or []):
                if pending.resolve(
                    504,
                    _error_payload(
                        pending.request_id, "timeout",
                        "scoring worker wedged; request abandoned by the watchdog",
                    ),
                ):
                    self.metrics.counter("daemon.timeouts").inc()
            delay = next(self._restart_delays, None)
            if delay is None:
                self._drain_on_spent_budget(
                    "serve.worker_failed",
                    "scoring-worker restart budget exhausted; draining",
                    "worker_failure",
                    generation=worker.generation,
                )
                return
            self.metrics.counter("daemon.worker_restarts").inc()
            self._emit(
                "serve.worker_restarted",
                level="warning",
                message=f"scoring worker {worker.generation} wedged "
                f">{self.config.wedge_timeout_s}s; restarting after {delay:.3f}s",
                generation=worker.generation,
                backoff_s=round(delay, 6),
            )
            time.sleep(delay)
            self._worker_generation += 1
            self._worker = _ScoringWorker(self, self._worker_generation)
            self._worker.start()

    def _drain_on_spent_budget(self, event: str, message: str, reason: str,
                               **fields: object) -> None:
        """A restart or respawn budget is spent: log ``event`` once and
        drain with exit code 4, so an orchestrator restarts the daemon
        whole instead of it flapping between broken states."""
        with self._restart_lock:
            if self._budget_spent:
                return
            self._budget_spent = True
        self._emit(event, level="error", message=message, **fields)
        threading.Thread(
            target=self.drain,
            kwargs={"reason": reason, "exit_code": 4},
            name="repro-serve-drain",
            daemon=True,
        ).start()

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def health(self) -> tuple[int, dict]:
        """``/healthz`` body: liveness, queue stats and deploy state.

        ``model_version`` / ``reloads`` / ``rollbacks`` let an
        orchestrator detect a flapping deploy (version oscillating,
        rollback counter climbing) without scraping /metrics.
        """
        draining = self._draining
        pool = self._pool
        payload = {
            "live": True,
            "ready": not draining and self._server is not None,
            "state": "draining" if draining else "ready",
            "queue_depth": self._batcher.waiting(),
            "admitted": self._admitted,
            "worker_generation": self._worker_generation,
            "model_version": self._engine_version,
            "reloads": int(self.metrics.counter("daemon.reloads").value),
            "reload_failures": int(
                self.metrics.counter("daemon.reload_failures").value
            ),
            "rollbacks": int(self.metrics.counter("daemon.rollbacks").value),
            "scoring_pool": pool.stats() if pool is not None else None,
        }
        return (503 if draining else 200), payload

    def prometheus(self) -> str:
        """``/metrics`` body: the registry in text exposition format."""
        self.metrics.gauge("daemon.queue_depth").set(self._batcher.waiting())
        self.metrics.gauge("daemon.draining").set(1 if self._draining else 0)
        pool = self._pool
        if pool is not None:
            self._export_pool_metrics(pool)
        set_workspace_gauges(self.metrics)
        return self.metrics.to_prometheus()

    def _export_pool_metrics(self, pool: ScoringPool) -> None:
        """Fold the pool's stats into the registry as gauges."""
        stats = pool.stats()
        per_worker = stats.pop("per_worker")
        stats.pop("broken", None)
        for name, value in stats.items():
            self.metrics.gauge(f"pool.{name}").set(value)
        for entry in per_worker:
            wid = entry["worker"]
            self.metrics.gauge(f"pool.worker_utilization.{wid}").set(
                entry["utilization"]
            )
            self.metrics.gauge(f"pool.worker_samples.{wid}").set(entry["samples"])

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: str, level: str = "info",
              message: str | None = None, **fields: object) -> None:
        session = obs.active()
        if session is not None:
            session.emit(event, level=level, message=message, **fields)

    def _note_access(self, method: str, path: str, status: int,
                     n_bytes: int, duration_s: float,
                     request_id: str | None = None) -> None:
        """Access-log one non-classify (or failed-classify) response.

        Successful ``/classify`` responses are deliberately excluded:
        they already leave a per-request audit trail.  This covers what
        that trail misses — probes, scrapes, bad routes and refusals.
        """
        session = obs.active()
        if session is None:
            return
        fields: dict[str, object] = {
            "method": method,
            "path": path,
            "status": status,
            "bytes": n_bytes,
            "duration_ms": round(duration_s * 1000.0, 3),
        }
        if request_id is not None:
            fields["request_id"] = request_id
        session.emit("serve.access", **fields)

    def _summary(self) -> dict:
        counters = {
            name: int(self.metrics.counter(f"daemon.{name}").value)
            for name in (
                "admitted", "responses", "shed", "timeouts", "bad_requests",
                "request_errors", "poison_batches", "worker_restarts",
                "drain_refused", "reloads", "reload_failures", "rollbacks",
            )
        }
        counters["exit_code"] = self._exit_code
        return counters

    def _emit_terminal(self, reason: str) -> None:
        """The terminal audit record every drain leaves behind."""
        summary = self._summary()
        session = obs.active()
        if session is not None:
            session.emit(
                "serve.drained",
                message=f"drained ({reason}): {summary['responses']} scored, "
                f"{summary['shed']} shed, {summary['timeouts']} timed out",
                reason=reason,
                **summary,
            )
        else:
            import sys

            print(
                json.dumps({"event": "serve.drained", "reason": reason, **summary}),
                file=sys.stderr,
                flush=True,
            )
