"""Multi-process scoring pool with zero-copy shared-memory IPC.

One Python process cannot scale ``classify_arrays`` past a single
core's BLAS throughput — the interpreter serialises everything around
the GEMMs.  :class:`ScoringPool` runs N warm worker *processes*, each
holding its own :class:`~repro.serve.engine.InferenceEngine`, and
scatters micro-batches onto them:

* **Pixels in shared memory, everything else on the pipe.**  Each
  shard's float32 stamp pairs and MJDs move through a
  :class:`multiprocessing.shared_memory.SharedMemory` ring of one
  :data:`SLOT_BYTES` slot per worker (a worker owns at most one shard
  at a time, so its id is its slot); the task message carries only
  ``(task_id, ring, slot, shape)`` and the scoring options.  The worker
  answers with one reply message: its :class:`PredictionResult` list
  or a typed exception, the spans the task finished, and its busy
  time.  A shard too large for a slot grows the ring instead: a new
  segment with power-of-two slots replaces the old one, and workers
  re-attach when a task names the new ring (counted as
  ``shm_overflow`` in :meth:`ScoringPool.stats`).
* **BLAS thread pinning.**  Workers are spawned (never forked — the
  daemon owns threads) under :func:`repro.nn.pinned_blas_env`, so each
  child's numpy import sizes its BLAS pool to ``cores // workers``
  threads and N workers never oversubscribe the machine.
* **Deterministic gather.**  A batch of ``n`` samples is split into
  contiguous shards, one per worker, and results are reassembled in
  request order.  A sample's score depends on the sample alone, not
  on its batch or shard, so pool output is bit-identical to the
  full-batch single-process path for any worker count.
* **Crash isolation.**  A worker dying mid-shard (OOM-killed, SIGKILL)
  is respawned after the next delay of :data:`RESPAWN_DELAYS_S` and its
  shard is re-scored sample by sample through
  :func:`~repro.serve.engine.isolate`; a sample that kills the
  replacement too comes back as a flagged
  :meth:`PredictionResult.failed` placeholder instead of sinking the
  batch.  A worker that is *alive but silent* — wedged inside a GEMM,
  stopped, swapping — is caught by the gather's no-progress deadline
  (``task_timeout_s``), terminated and healed through the same respawn
  path, so a dispatch can never block forever (a daemon scoring through
  the pool runs no watchdog: this is its one wedge deadline).  The
  budget replenishes after a crash-free :data:`RESPAWN_RESET_S` (it
  bounds *flapping*, not lifetime crashes); exhausting it inside one
  unhealthy window marks the pool broken (:class:`PoolBrokenError`) so
  the daemon can drain with exit code 4.  :meth:`close` waits at most
  2 s for a stuck dispatch, then terminates the workers outright and
  unlinks the shm ring, so a drain cannot deadlock behind a wedge.
* **One model for life.**  A pool loads one model directory at
  :meth:`start` and serves it until :meth:`close`.  A daemon that swaps
  versions boots a new pool beside the served one and closes the old
  pool after the swap, exactly as it swaps in-process engines.
"""

from __future__ import annotations

import os
import math
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import multiprocessing
from multiprocessing import connection, shared_memory

import numpy as np

from .. import obs
from ..nn.threads import blas_env_settings, blas_thread_plan, pinned_blas_env
from ..obs import trace as obs_trace
from ..obs.drift import DriftBaseline, DriftMonitor
from .engine import (
    InferenceEngine,
    PredictionResult,
    audit_results,
    check_batch_shape,
    feed_drift,
    isolate,
    stream_isolated,
    warn_no_drift_baseline,
)

__all__ = [
    "PoolConfig",
    "PoolError",
    "PoolBrokenError",
    "WorkerCrashError",
    "ScoringPool",
    "RESPAWN_DELAYS_S",
    "RESPAWN_RESET_S",
    "SLOT_BYTES",
]

#: Worker-respawn budget, the wait (s) before each respawn: seven
#: respawns, generous enough to heal a poison batch (one group crash
#: plus the culprit's single-sample crash) a few times over, bounded so
#: a worker that dies on every batch cannot flap forever.
RESPAWN_DELAYS_S = tuple(0.05 * 1.5**k for k in range(7))

#: A crash-free period this long replenishes the respawn budget, so the
#: budget bounds flapping rather than total lifetime crashes.
RESPAWN_RESET_S = 60.0


class PoolError(RuntimeError):
    """Scoring-pool failure that is not a per-sample scoring error."""


class PoolBrokenError(PoolError):
    """The pool exhausted its respawn budget (or was closed) — drain."""


class WorkerCrashError(PoolError):
    """A scoring worker process died while scoring a sample."""


#: Initial size of one shm ring slot.  Fits a 64-sample shard of
#: 5-visit 65x65 stamp pairs (about 11 MB), so steady traffic never
#: grows the ring; a larger shard grows it (see :meth:`ScoringPool._fit_ring`).
SLOT_BYTES = 16 << 20

#: How long a spawned worker may take to load its engine and report
#: ready, at start and on every respawn.
START_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class PoolConfig:
    """Tunables of :class:`ScoringPool`.

    Each of the ``workers`` processes gets ``max(1, cores // workers)``
    BLAS threads, and the shm ring holds one slot of :data:`SLOT_BYTES`
    per worker.
    The respawn budget is :data:`RESPAWN_DELAYS_S`.
    """

    workers: int = 2
    #: No-progress deadline per gather: a worker that is alive but has
    #: sent nothing for this long while owing a shard is treated as
    #: wedged — terminated, its shard marked crashed, healed via the
    #: respawn path.  The daemon passes its ``wedge_timeout_s``;
    #: ``repro classify --workers N`` keeps the default.
    task_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not math.isfinite(self.task_timeout_s) or self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be finite and positive")


# ----------------------------------------------------------------------
# Shared-memory slot layout
# ----------------------------------------------------------------------
_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _slot_layout(n: int, v: int, s: int) -> tuple[int, int]:
    """``(mjd_offset, total_bytes)`` of one task's float32 pixels + MJDs.

    Both sides derive the layout from the ``(n, v, s)`` shape tuple in
    the task message.
    """
    mjd_off = _align(n * v * 2 * s * s * 4)
    return mjd_off, mjd_off + n * v * 4


def _portable(exc: BaseException) -> BaseException:
    """What a worker sends for ``exc``: its pickle round trip when that
    gives back the same type and message, else a :class:`PoolError`
    naming both.

    The round-tripped copy carries no traceback, so no frame of the
    failed task (and no view of the shm ring) outlives the reply.
    """
    try:
        rebuilt = pickle.loads(pickle.dumps(exc))
        if type(rebuilt) is type(exc) and str(rebuilt) == str(exc):
            return rebuilt
    except Exception:  # noqa: BLE001 - the PoolError fallback always pickles
        pass
    return PoolError(f"{type(exc).__name__}: {exc}")


def _terminate(process) -> None:
    """Terminate ``process`` and reap it, killing it if SIGTERM is ignored."""
    process.terminate()
    process.join(1.0)
    if process.is_alive():  # pragma: no cover - last resort
        process.kill()
        process.join(1.0)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _run_task(
    engine: InferenceEngine, tracer: obs_trace.WorkerTracer, buf, msg: tuple
) -> tuple:
    """Score one shm task into its reply; views over ``buf`` die at exit.

    The ``worker.compute`` span exists only when the task carries a wire
    context (its request is sampled); the reply takes every span the
    task finished.
    """
    _, task_id, _, slot_bytes, slot, shape, strict, start_index, wire = msg
    n, v, s = shape
    base = slot * slot_bytes
    mjd_off, _ = _slot_layout(n, v, s)
    pairs = np.ndarray((n, v, 2, s, s), dtype=np.float32, buffer=buf, offset=base)
    mjd = np.ndarray((n, v), dtype=np.float32, buffer=buf, offset=base + mjd_off)
    task_span = (
        obs_trace.NULL_SPAN if wire is None
        else tracer.resume(wire, "worker.compute", f"t{task_id}", n_samples=n)
    )
    started = time.perf_counter()
    try:
        with task_span:
            results = engine.score_arrays(pairs, mjd, strict, start_index)
    except Exception as exc:  # noqa: BLE001 - shipped to the parent, typed
        return ("task_error", task_id, _portable(exc), tracer.take(),
                time.perf_counter() - started)
    return ("task_done", task_id, results, tracer.take(),
            time.perf_counter() - started)


def _worker_main(
    conn,
    worker_id: int,
    model_source: str,
    worker_init: Callable | None,
) -> None:
    """Entry point of one spawned scoring worker.

    Spawned (not forked) so the pinned BLAS environment is read by a
    fresh numpy import and no daemon thread state leaks in.  The worker
    owns one warm engine for its whole life and answers each ``task``
    message (pixels in the shm ring it names, re-attached when the
    parent has grown it) with one reply over its pipe — results or a
    typed error, plus the spans the task finished and its busy time.

    A :class:`~repro.obs.trace.WorkerTracer` keeps finished spans in
    memory: ``worker.compute`` is resumed from the wire context of a
    sampled task, and the engine's stages nest under it.
    """
    tracer = obs_trace.WorkerTracer(worker_id)
    obs_trace.install(tracer)
    try:
        engine = InferenceEngine.from_directory(model_source)
        engine.pipeline.cnn.eval()
        engine.pipeline.classifier.eval()
        if worker_init is not None:
            worker_init(engine, worker_id)
    except Exception as exc:  # noqa: BLE001 - boot failures go to the parent
        try:
            conn.send(("boot_error", worker_id, _portable(exc)))
        except OSError:
            pass
        return
    shm = None
    conn.send(("ready", worker_id, os.getpid(), blas_env_settings()))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "task":
            if shm is None or shm.name != msg[2]:
                if shm is not None:
                    shm.close()
                # Attaching re-registers the segment with the resource
                # tracker the spawned child shares with the parent — a
                # set-add no-op.  Do NOT unregister: that would strip the
                # parent's registration and its unlink bookkeeping.
                shm = shared_memory.SharedMemory(name=msg[2])
            reply = _run_task(engine, tracer, shm.buf, msg)
        else:  # pragma: no cover - protocol bug
            reply = ("task_error", None, PoolError(f"unknown message {kind}"),
                     [], 0.0)
        try:
            conn.send((reply[0], worker_id) + reply[1:])
        except (BrokenPipeError, OSError):
            break
    try:
        if shm is not None:
            shm.close()
    except BufferError:  # pragma: no cover - a leaked view; exiting anyway
        pass
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = (
        "id", "process", "conn", "pid", "blas_env",
        "tasks", "samples", "busy_s", "crashes",
    )

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.pid: int | None = None
        self.blas_env: dict | None = None
        self.tasks = 0
        self.samples = 0
        self.busy_s = 0.0
        self.crashes = 0


class _Shard:
    """One in-flight scatter unit: a contiguous sample range on a worker."""

    __slots__ = ("task_id", "worker", "offset", "count", "start_index",
                 "outcome")

    def __init__(self, task_id: int, worker: _Worker, offset: int,
                 count: int, start_index: int) -> None:
        self.task_id = task_id
        self.worker = worker
        self.offset = offset
        self.count = count
        self.start_index = start_index
        #: ("ok", results) | ("error", exception) | ("crash", None)
        self.outcome: tuple | None = None


class ScoringPool:
    """A warm pool of scoring worker processes (see module docstring).

    Construct with either ``model_source`` (a saved model directory —
    what ``repro serve --registry`` and ``repro classify --model``
    already have) or a live ``engine`` (persisted once to a pool-owned
    temp directory so spawned workers can load it).  Strict mode is a
    per-call flag, as on the engine.  A pool serves that one model from
    :meth:`start` to :meth:`close`; the parent holds its
    :attr:`drift_monitor`, built from the model directory's drift
    baseline at :meth:`start`.

    ``worker_init(engine, worker_id)`` is the chaos seam: a *picklable*
    callable applied to each worker's engine after load (the pool
    equivalent of ``reload_hook``); the fault suite uses it to plant
    deterministic crashes inside worker processes.
    """

    def __init__(
        self,
        model_source: str | os.PathLike | None = None,
        engine: InferenceEngine | None = None,
        config: PoolConfig | None = None,
        worker_init: Callable | None = None,
    ) -> None:
        if (model_source is None) == (engine is None):
            raise ValueError("pass exactly one of model_source or engine")
        self.config = config or PoolConfig()
        self._worker_init = worker_init
        self._engine = engine
        self._model_source = (
            os.fspath(model_source) if model_source is not None else None
        )
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        #: Drift monitor of the served model; ``None`` without a baseline.
        self.drift_monitor: DriftMonitor | None = None
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        #: Guards only the closed flag, so close() can make the pool
        #: terminal without first winning the dispatch lock.
        self._close_lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._shm: shared_memory.SharedMemory | None = None
        self._slot_bytes = SLOT_BYTES
        self._blas_threads = blas_thread_plan(self.config.workers)
        self._respawn_delays = iter(RESPAWN_DELAYS_S)
        self._last_crash_at: float | None = None
        self._started_at: float | None = None
        self._started = False
        self._closed = False
        self._broken: str | None = None
        self._task_counter = 0
        self._next_worker = 0
        self._respawns = 0
        self._crashes = 0
        self._wedges = 0
        self._overflow = 0
        self._crashed_shards = 0
        self._poison_samples = 0
        self._tasks = 0
        self._samples = 0
        self._scatter_s = 0.0
        self._gather_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ScoringPool":
        """Create the shm ring and spawn + await every worker."""
        with self._lock:
            if self._started:
                raise PoolError("pool already started")
            if self._closed:
                raise PoolBrokenError("pool is closed")
            if self._model_source is None:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-pool-")
                self._engine.save(self._tmpdir.name)
                self._model_source = self._tmpdir.name
            baseline = DriftBaseline.load(self._model_source)
            if baseline is not None:
                self.drift_monitor = DriftMonitor(baseline)
            elif self._tmpdir is None:
                # A live engine's loader has already warned.
                warn_no_drift_baseline(self._model_source)
            self._shm = shared_memory.SharedMemory(
                create=True, size=self.config.workers * self._slot_bytes
            )
            try:
                for worker_id in range(self.config.workers):
                    self._workers.append(self._spawn(worker_id))
                for worker in self._workers:
                    self._await_ready(worker, START_TIMEOUT_S)
            except BaseException:
                # No caller can close a pool whose start() raised (a
                # ``with`` block never runs __exit__ when __enter__
                # raises), so reap every worker already booted here.
                for worker in self._workers:
                    _terminate(worker.process)
                    worker.conn.close()
                self._workers.clear()
                self._teardown()
                raise
            self._started = True
            self._started_at = time.monotonic()
            return self

    def __enter__(self) -> "ScoringPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop every worker and release the shm ring; idempotent.

        Never blocks behind a stuck dispatch: when the scoring lock
        cannot be acquired within 2 s (a dispatch still in flight, or a
        wedged worker holding a gather hostage), the worker processes
        are terminated outright and the shm ring name is unlinked
        anyway.  The killed workers wake the
        stuck gather (dead sentinels), its shards settle as crashes, and
        the now-closed pool raises :class:`PoolBrokenError` out of the
        dispatch instead of respawning into torn-down state — so a
        daemon drain can always complete.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        acquired = self._lock.acquire(timeout=min(timeout_s, 2.0))
        try:
            if acquired:
                for worker in self._workers:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            else:  # set before the kills below wake the stuck gather
                self._broken = "pool closed while a dispatch was stuck"
            deadline = time.monotonic() + timeout_s
            for worker in self._workers:
                if acquired:  # only a worker sent "stop" exits by itself
                    worker.process.join(max(0.1, deadline - time.monotonic()))
                if worker.process.is_alive():
                    _terminate(worker.process)
                if acquired:
                    worker.conn.close()
            if acquired:
                self._teardown()
            else:
                # Forced path: the dispatch thread may still hold views
                # over the slab, so only unlink the name (the mapping is
                # freed with the process); conns stay open for the stuck
                # gather to drain its error exits through.
                self._unlink_shm()
        finally:
            if acquired:
                self._lock.release()

    def _teardown(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._unlink_shm()
            self._shm = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _unlink_shm(self) -> None:
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    @property
    def started(self) -> bool:
        """True once :meth:`start` has completed (workers are warm)."""
        return self._started

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; the pool is terminal."""
        return self._closed

    def pids(self) -> list[int]:
        """Live worker process ids (the chaos suite's SIGKILL targets)."""
        return [w.process.pid for w in self._workers if w.process.pid]

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                worker_id,
                self._model_source,
                self._worker_init,
            ),
            name=f"repro-pool-{worker_id}",
            daemon=True,
        )
        with pinned_blas_env(self._blas_threads):
            process.start()
        child_conn.close()
        return _Worker(worker_id, process, parent_conn)

    def _await_ready(self, worker: _Worker, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolError(f"worker {worker.id} not ready after {timeout_s}s")
            if worker.conn.poll(min(remaining, 0.5)):
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    raise PoolError(
                        f"worker {worker.id} died during boot "
                        f"(exitcode {worker.process.exitcode})"
                    ) from None
                if msg[0] == "ready":
                    worker.pid = msg[2]
                    worker.blas_env = msg[3]
                    return
                if msg[0] == "boot_error":
                    # Typed, so a missing or corrupt model fails the
                    # caller exactly as an in-process load would.
                    raise msg[2]
            elif not worker.process.is_alive():
                raise PoolError(
                    f"worker {worker.id} died during boot "
                    f"(exitcode {worker.process.exitcode})"
                )

    def _note_crash(self, worker: _Worker) -> _Worker:
        """Respawn a dead worker under the budget; broken pool raises."""
        if self._closed:
            # close() tore the workers down under us (forced drain);
            # never respawn into unlinked shm — surface the endgame.
            raise PoolBrokenError("pool is closed")
        current = self._workers[worker.id]
        if current is not worker:
            return current  # another path already replaced it
        worker.crashes += 1
        self._crashes += 1
        worker.process.join(1.0)
        worker.conn.close()
        now = time.monotonic()
        if (
            self._last_crash_at is not None
            and now - self._last_crash_at >= RESPAWN_RESET_S
        ):
            # A sustained healthy period replenishes the budget: it
            # bounds flapping, not total crashes over a long uptime.
            self._respawn_delays = iter(RESPAWN_DELAYS_S)
        self._last_crash_at = now
        delay = next(self._respawn_delays, None)
        if delay is None:
            self._broken = (
                f"worker {worker.id} died and the respawn budget "
                f"({len(RESPAWN_DELAYS_S)} respawns) is exhausted"
            )
            raise PoolBrokenError(self._broken)
        time.sleep(delay)
        self._respawns += 1
        replacement = self._spawn(worker.id)
        replacement.crashes = worker.crashes
        self._await_ready(replacement, START_TIMEOUT_S)
        self._workers[worker.id] = replacement
        return replacement

    def _ensure_live(self) -> None:
        if self._broken is not None:
            raise PoolBrokenError(self._broken)
        if not self._started:
            raise PoolError("pool not started")
        if self._closed:
            raise PoolBrokenError("pool is closed")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def classify_arrays(
        self,
        pairs: np.ndarray,
        mjd: np.ndarray,
        strict: bool = False,
        start_index: int = 0,
    ) -> list[PredictionResult]:
        """Scatter one batch across the pool; gather in request order.

        Mirrors :meth:`InferenceEngine.classify_arrays` exactly: the
        returned results are bit-identical to the single-process call
        on the whole batch, scoring exceptions (strict degradation,
        malformed batches) re-raise with the same types, and a worker
        crash is healed internally (respawn + per-sample re-score) with
        only repeat offenders flagged as failed placeholders.  Workers
        only score, so the parent audits the scored samples under a
        telemetry session (:func:`~repro.serve.engine.audit_results`)
        and feeds its drift monitor
        (:func:`~repro.serve.engine.feed_drift`).
        """
        session = obs.active()
        t_start = time.perf_counter() if session is not None else 0.0
        # The engine's batch-level checks the shm layout depends on,
        # before any bytes move.
        pairs_arr, mjd_arr = check_batch_shape(pairs, mjd)
        n = pairs_arr.shape[0]
        if n == 0:
            return []
        # The engine casts to float32 on entry anyway; casting here means
        # the ring carries half the bytes with zero numeric difference.
        pairs32 = np.ascontiguousarray(pairs_arr, dtype=np.float32)
        mjd32 = np.ascontiguousarray(mjd_arr, dtype=np.float32)
        dispatch_parent = obs_trace.current_span()
        with self._lock:
            self._ensure_live()
            wire = obs_trace.wire_context(dispatch_parent)
            with obs_trace.span(
                "pool.scatter",
                parent=dispatch_parent,
                n_samples=n,
                workers=len(self._workers),
            ):
                plan = self._plan_shards(n)
                # The first shard is the largest (_plan_shards).
                self._fit_ring(
                    _slot_layout(plan[0][1], pairs32.shape[1], pairs32.shape[3])[1]
                )
                shards: list[_Shard] = []
                for offset, count in plan:
                    worker = self._pick_worker()
                    shards.append(
                        self._submit(worker, pairs32, mjd32, offset, count,
                                     strict, start_index, wire)
                    )
            with obs_trace.span(
                "pool.gather", parent=dispatch_parent, shards=len(shards)
            ):
                self._gather(shards)
                results = self._settle(shards, pairs32, mjd32, strict,
                                       start_index)
        self._tasks += 1
        self._samples += n
        if session is not None:
            audit_results(session, results, time.perf_counter() - t_start)
        if self.drift_monitor is not None:
            feed_drift(session, self.drift_monitor, results)
        return results

    def _plan_shards(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``(offset, count)`` shards, one per worker."""
        shard_count = min(self.config.workers, n)
        base, extra = divmod(n, shard_count)
        plan = []
        offset = 0
        for k in range(shard_count):
            count = base + (1 if k < extra else 0)
            plan.append((offset, count))
            offset += count
        return plan

    def _pick_worker(self) -> _Worker:
        """Round-robin over workers, respawning one found already dead."""
        worker = self._workers[self._next_worker % len(self._workers)]
        self._next_worker += 1
        if not worker.process.is_alive():
            worker = self._note_crash(worker)
        return worker

    def _submit(
        self,
        worker: _Worker,
        pairs32: np.ndarray,
        mjd32: np.ndarray,
        offset: int,
        count: int,
        strict: bool,
        start_index: int,
        wire: tuple | None = None,
    ) -> _Shard:
        shard_pairs = pairs32[offset : offset + count]
        shard_mjd = mjd32[offset : offset + count]
        n, v, s = count, pairs32.shape[1], pairs32.shape[3]
        mjd_off, _ = _slot_layout(n, v, s)
        task_id = self._task_counter
        self._task_counter += 1
        started = time.perf_counter()
        # A worker owns at most one shard at a time, so its id is its slot.
        self._write_slot(worker.id * self._slot_bytes, mjd_off, shard_pairs,
                         shard_mjd)
        message = ("task", task_id, self._shm.name, self._slot_bytes, worker.id,
                   (n, v, s), strict, start_index + offset, wire)
        shard = _Shard(task_id, worker, offset, count, start_index + offset)
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            shard.outcome = ("crash", None)
        self._scatter_s += time.perf_counter() - started
        return shard

    def _fit_ring(self, needed: int) -> None:
        """Grow the ring to power-of-two slots of at least ``needed`` bytes.

        Runs under the dispatch lock before a scatter writes, so no shard
        is in flight on the old (unlinked) segment; workers re-attach
        when a task message names the new one.
        """
        if needed <= self._slot_bytes:
            return
        slot_bytes = 1 << (needed - 1).bit_length()
        old = self._shm
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.config.workers * slot_bytes
        )
        self._slot_bytes = slot_bytes
        self._overflow += 1
        old.close()
        old.unlink()

    def _write_slot(self, base: int, mjd_off: int,
                    shard_pairs: np.ndarray, shard_mjd: np.ndarray) -> None:
        buf = self._shm.buf
        dst_pairs = np.ndarray(
            shard_pairs.shape, dtype=np.float32, buffer=buf, offset=base
        )
        dst_pairs[...] = shard_pairs
        dst_mjd = np.ndarray(
            shard_mjd.shape, dtype=np.float32, buffer=buf, offset=base + mjd_off
        )
        dst_mjd[...] = shard_mjd

    def _gather(self, shards: list[_Shard]) -> None:
        """Wait for every shard's outcome; crashes become outcomes too.

        Bounded: any message (or a settled worker death) resets the
        no-progress deadline, but a worker that stays *alive yet silent*
        past ``task_timeout_s`` is declared wedged — terminated, its
        shards settled as crashes for the respawn path to heal — so a
        hung GEMM or a stopped process can never hold the dispatch lock
        (and, through it, a daemon drain) forever.
        """
        started = time.perf_counter()
        pending = {s.task_id: s for s in shards if s.outcome is None}
        deadline = time.monotonic() + self.config.task_timeout_s
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_wedged(pending)
                break
            workers = {s.worker for s in pending.values()}
            sentinels = {w.process.sentinel: w for w in workers}
            conns = {w.conn: w for w in workers}
            ready = connection.wait(
                list(conns) + list(sentinels), timeout=min(1.0, remaining)
            )
            progressed = False
            for item in ready:
                worker = conns.get(item)
                if worker is None:
                    continue
                progressed |= self._drain_conn(worker, pending)
            if progressed:
                deadline = time.monotonic() + self.config.task_timeout_s
                continue
            for item in ready:
                worker = sentinels.get(item)
                if worker is None or worker.process.is_alive():
                    continue
                # Dead with no message for its shard: a mid-task crash.
                for shard in list(pending.values()):
                    if shard.worker is worker:
                        shard.outcome = ("crash", None)
                        del pending[shard.task_id]
                        progressed = True
            if progressed:
                deadline = time.monotonic() + self.config.task_timeout_s
        self._gather_s += time.perf_counter() - started

    def _kill_wedged(self, pending: dict[int, _Shard]) -> None:
        """Terminate every silent worker still owing a shard.

        The shards settle as crashes, so :meth:`_settle` heals them
        through the exact path a SIGKILLed worker takes: respawn under
        the respawn budget, per-sample re-score, repeat offenders flagged.
        """
        for shard in list(pending.values()):
            worker = shard.worker
            if worker.process.is_alive():
                self._wedges += 1
                _terminate(worker.process)
            shard.outcome = ("crash", None)
            del pending[shard.task_id]

    def _drain_conn(self, worker: _Worker, pending: dict[int, _Shard]) -> bool:
        progressed = False
        try:
            while worker.conn.poll():
                msg = worker.conn.recv()
                progressed |= self._handle_message(worker, msg, pending)
        except (EOFError, OSError):
            pass
        return progressed

    def _handle_message(
        self, worker: _Worker, msg: tuple, pending: dict[int, _Shard]
    ) -> bool:
        kind = msg[0]
        shard = (
            pending.pop(msg[2], None) if kind in ("task_done", "task_error") else None
        )
        if shard is None:  # pragma: no cover
            return False
        _, _, _, payload, spans, elapsed = msg
        shard.outcome = ("ok" if kind == "task_done" else "error", payload)
        tracer = obs_trace.tracer()
        if spans and isinstance(tracer, obs_trace.Tracer):
            for record in spans:
                tracer.merge(record)
        worker.tasks += 1
        worker.samples += shard.count
        worker.busy_s += elapsed
        return True

    def _settle(
        self,
        shards: list[_Shard],
        pairs32: np.ndarray,
        mjd32: np.ndarray,
        strict: bool,
        start_index: int,
    ) -> list[PredictionResult]:
        """Combine shard outcomes; heal crashes; re-raise scoring errors."""
        for shard in shards:  # in offset order: the first error wins
            if shard.outcome[0] == "error":
                raise shard.outcome[1]
        results: list[PredictionResult] = []
        for shard in shards:
            if shard.outcome[0] == "ok":
                results.extend(shard.outcome[1])
            else:
                results.extend(
                    self._heal(shard, pairs32, mjd32, strict, start_index)
                )
        return results

    def _heal(
        self,
        shard: _Shard,
        pairs32: np.ndarray,
        mjd32: np.ndarray,
        strict: bool,
        start_index: int,
    ) -> list[PredictionResult]:
        """Respawn dead workers, then re-score a crashed shard's samples
        alone via :func:`isolate` (never the whole shard again).  A repeat
        crash becomes a :class:`WorkerCrashError` placeholder (raised
        under strict); any other lone scoring error re-raises."""
        for dead in list(self._workers):
            if not dead.process.is_alive():
                self._note_crash(dead)

        # Called inside the gather span's scope, so the heal — and the
        # respawned workers' compute spans resumed from its wire context
        # — records as a child of ``pool.gather``.
        with obs_trace.span("pool.heal", n_samples=shard.count, offset=shard.offset):
            wire = obs_trace.wire_context()

            def score(a: int, b: int) -> list[PredictionResult]:
                single = self._submit(self._pick_worker(), pairs32, mjd32,
                                      shard.offset + a, b - a, strict,
                                      start_index, wire)
                self._gather([single])
                kind = single.outcome[0]
                if kind == "ok":
                    return single.outcome[1]
                if kind == "error":
                    raise single.outcome[1]
                self._note_crash(single.worker)
                raise WorkerCrashError(
                    f"sample {single.start_index} crashed the scoring worker; "
                    "served at the no-information prior"
                )

            def note_crashed_shard(exc: Exception) -> None:
                self._crashed_shards += 1

            outcomes = list(isolate(
                score, shard.count, on_split=note_crashed_shard,
                failure=WorkerCrashError(
                    f"worker {shard.worker.id} died scoring {shard.count} "
                    f"sample(s) from {shard.start_index}"
                ),
            ))
        healed: list[PredictionResult] = []
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                if strict or not isinstance(outcome, WorkerCrashError):
                    raise outcome
                self._poison_samples += 1
                outcome = PredictionResult.failed(shard.start_index + i, outcome)
            healed.append(outcome)
        return healed

    def stream(
        self,
        dataset,
        batch_size: int = 64,
        strict: bool = False,
    ) -> Iterator[PredictionResult]:
        """Yield results for a dataset, ``workers`` batches in flight.

        The pool-backed :meth:`InferenceEngine.stream`, through the same
        :func:`~repro.serve.engine.stream_isolated` loop: chunks of
        ``batch_size * workers`` samples are scattered so every worker
        scores one engine-sized batch per round, and results stream in
        request order.  :class:`PoolBrokenError` always raises.
        """
        return stream_isolated(
            self.classify_arrays, dataset, batch_size * self.config.workers, strict
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Pool-level and per-worker utilization and healing stats."""
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        per_worker = []
        for worker in self._workers:
            per_worker.append(
                {
                    "worker": worker.id,
                    "pid": worker.pid,
                    "alive": worker.process.is_alive(),
                    "tasks": worker.tasks,
                    "samples": worker.samples,
                    "busy_s": round(worker.busy_s, 6),
                    "utilization": (
                        round(worker.busy_s / uptime, 6) if uptime > 0 else 0.0
                    ),
                    "crashes": worker.crashes,
                }
            )
        return {
            "workers": len(self._workers),
            "blas_threads": self._blas_threads,
            "slots": self.config.workers,
            "slot_bytes": self._slot_bytes,
            "batches": self._tasks,
            "samples": self._samples,
            "crashes": self._crashes,
            "wedges": self._wedges,
            "respawns": self._respawns,
            "shm_overflow": self._overflow,
            "crashed_shards": self._crashed_shards,
            "poison_samples": self._poison_samples,
            "scatter_s_total": round(self._scatter_s, 6),
            "gather_s_total": round(self._gather_s, 6),
            "broken": self._broken,
            "per_worker": per_worker,
        }
