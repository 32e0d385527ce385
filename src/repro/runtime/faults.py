"""Deterministic fault injection for testing the resilience runtime.

Every injector is counter- or index-driven — no wall clock, no global
randomness — so a test that injects "fail on the 3rd sample" or "NaN on
the 5th batch" reproduces exactly.  Three fault families cover the three
workloads:

* :func:`raise_on_nth_sample` — a builder ``fault_hook`` that makes one
  stamp render fail (exercises per-sample quarantine);
* :class:`FailSlot` — a picklable ``fault_hook`` addressing one
  ``(slot, attempt)`` pair, for parallel (``workers > 1``) builds where
  hooks are shipped into worker processes;
* :class:`NanBatchFault` — wraps a training ``loss_fn`` and poisons the
  inputs of chosen batches with NaN (exercises the divergence guard);
* :func:`truncate_file` — chops bytes off an artifact on disk
  (exercises checksum / corrupt-artifact detection);
* :class:`InputCorruption` subclasses (:class:`DropBand`,
  :class:`NaNPixels`, :class:`SaturateRegion`, :class:`TruncateCutout`)
  — degrade stamp-pair batches the way real survey traffic does
  (exercises the :mod:`repro.serve` degraded-input path);
* the daemon chaos kit — :class:`FailBatch` / :class:`WedgeBatch`
  scoring hooks, :func:`malformed_bodies` payload variants,
  :func:`send_slow_request` dribbling clients and :class:`BurstSchedule`
  arrival plans (exercises :mod:`repro.serve.daemon` admission control,
  deadlines, poison isolation and the watchdog).

:class:`SimulatedCrash` deliberately subclasses :class:`BaseException`
so it sails through the per-sample ``except Exception`` quarantine in
the builder exactly like a real ``SIGKILL`` would, which is what the
kill-and-resume tests need.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Callable

import numpy as np

__all__ = [
    "InjectedFault",
    "SimulatedCrash",
    "raise_on_nth_sample",
    "crash_on_nth_sample",
    "FailSlot",
    "NanBatchFault",
    "KillSwitch",
    "truncate_file",
    "CrashWorkerOnMarker",
    "WedgeWorkerOnMarker",
    "RaiseWorkerOnMarker",
    "InputCorruption",
    "DropBand",
    "NaNPixels",
    "SaturateRegion",
    "TruncateCutout",
    "FailBatch",
    "WedgeBatch",
    "ShiftScores",
    "BurstSchedule",
    "malformed_bodies",
    "send_slow_request",
]


class InjectedFault(RuntimeError):
    """A deliberately injected, recoverable fault (quarantinable)."""


class SimulatedCrash(BaseException):
    """A simulated hard kill; bypasses ``except Exception`` handlers."""


def raise_on_nth_sample(n: int, exc: type[BaseException] = InjectedFault) -> Callable[[int, int], None]:
    """Builder ``fault_hook`` raising ``exc`` on the ``n``-th build attempt.

    Counts every ``(sample, attempt)`` invocation (0-based) and raises
    exactly once, so the builder's resampling retry succeeds afterwards.
    """
    calls = {"count": 0}

    def hook(index: int, attempt: int) -> None:
        current = calls["count"]
        calls["count"] += 1
        if current == n:
            raise exc(f"injected fault at sample {index} (attempt {attempt})")

    return hook


def crash_on_nth_sample(n: int) -> Callable[[int, int], None]:
    """Builder ``fault_hook`` simulating a process kill before sample ``n``."""
    return raise_on_nth_sample(n, exc=SimulatedCrash)


class FailSlot:
    """Builder ``fault_hook`` failing one specific sample slot.

    Unlike the closure-based injectors, instances are picklable, so this
    is the hook of choice for ``workers > 1`` builds where the hook
    travels into worker processes.  Addressing is by ``(slot, attempt)``
    rather than a global call counter — exactly the per-slot retry
    semantics of the version-2 seeding contract: attempts
    ``0 .. fail_attempts-1`` of ``slot`` raise ``exc``, every other call
    passes.
    """

    def __init__(
        self,
        slot: int,
        fail_attempts: int = 1,
        exc: type[BaseException] = InjectedFault,
    ) -> None:
        self.slot = slot
        self.fail_attempts = fail_attempts
        self.exc = exc

    def __call__(self, slot: int, attempt: int) -> None:
        """Raise the configured exception on the targeted attempts."""
        if slot == self.slot and attempt < self.fail_attempts:
            raise self.exc(f"injected fault at sample {slot} (attempt {attempt})")


class NanBatchFault:
    """Wrap a training ``loss_fn`` so chosen batches produce NaN losses.

    ``batches`` is a set of 0-based global batch counters to poison, or
    the string ``"all"`` to poison every batch (forcing retry
    exhaustion).  Poisoning replaces the first input array with NaNs, so
    the NaN propagates through the model exactly like bad data would.
    """

    def __init__(self, loss_fn: Callable, batches: set[int] | str) -> None:
        self.loss_fn = loss_fn
        self.batches = batches
        self.calls = 0

    def _poison(self, count: int) -> bool:
        if self.batches == "all":
            return True
        return count in self.batches

    def __call__(self, model, inputs, target):
        """Evaluate the wrapped loss, poisoning this batch if selected."""
        count = self.calls
        self.calls += 1
        if self._poison(count):
            inputs = (np.full_like(inputs[0], np.nan),) + tuple(inputs[1:])
        return self.loss_fn(model, inputs, target)


class KillSwitch:
    """``on_epoch_end`` callback that simulates a kill after ``after_epoch``.

    Raises :class:`SimulatedCrash` once the given 0-based epoch has
    completed (and therefore been checkpointed), emulating a process
    death between epochs.
    """

    def __init__(self, after_epoch: int) -> None:
        self.after_epoch = after_epoch

    def __call__(self, epoch: int, history) -> None:
        """Raise :class:`SimulatedCrash` when the target epoch finishes."""
        if epoch >= self.after_epoch:
            raise SimulatedCrash(f"simulated kill after epoch {epoch}")


class CrashWorkerOnMarker:
    """Picklable pool ``worker_init`` that SIGKILLs on a marked sample.

    The process-pool analogue of :class:`FailBatch`: instances travel
    into :class:`~repro.serve.pool.ScoringPool` workers (via the
    ``worker_init`` seam) and wrap the worker engine's
    ``score_arrays`` so a batch whose first pixel carries the magic
    ``marker`` value kills the worker process mid-batch — a real
    ``SIGKILL``, not an exception, exercising the pool's crash
    detection, respawn budget and per-sample culprit isolation.

    ``min_batch`` scopes the blast radius: with the default 1 the marked
    sample kills every worker that ever scores it (a repeat offender the
    pool must eventually give up on); with ``min_batch=2`` only grouped
    batches die, so the pool's per-sample re-score heals the batch and
    every sample still gets its bit-exact score.
    """

    def __init__(self, marker: float, min_batch: int = 1) -> None:
        self.marker = float(marker)
        self.min_batch = int(min_batch)

    def __call__(self, engine, worker_id: int) -> None:
        """Wrap ``engine.score_arrays`` with the marker tripwire."""
        import signal as _signal

        inner = engine.score_arrays
        marker, min_batch = self.marker, self.min_batch

        def score_arrays(pairs, mjd, strict, start_index):
            arr = np.asarray(pairs)
            if (
                arr.ndim == 5
                and arr.shape[0] >= min_batch
                and np.any(arr[:, 0, 0, 0, 0] == marker)
            ):
                os.kill(os.getpid(), _signal.SIGKILL)
            return inner(pairs, mjd, strict, start_index)

        engine.score_arrays = score_arrays


class WedgeWorkerOnMarker:
    """Picklable pool ``worker_init`` that hangs — alive but silent — on
    a marked sample.

    The wedge analogue of :class:`CrashWorkerOnMarker`: instead of a
    ``SIGKILL`` the worker sleeps ``hang_s`` (default: effectively
    forever) inside its scoring call, so neither its pipe nor its
    process sentinel ever fires.  Exercises the pool gather's
    no-progress deadline: the parent must declare the worker wedged,
    terminate it and heal through the respawn path.  ``min_batch``
    scopes the blast radius exactly as for the crash injector.
    """

    def __init__(self, marker: float, min_batch: int = 1,
                 hang_s: float = 3600.0) -> None:
        self.marker = float(marker)
        self.min_batch = int(min_batch)
        self.hang_s = float(hang_s)

    def __call__(self, engine, worker_id: int) -> None:
        """Wrap ``engine.score_arrays`` with the marker tripwire."""
        import time as _time

        inner = engine.score_arrays
        marker, min_batch, hang_s = self.marker, self.min_batch, self.hang_s

        def score_arrays(pairs, mjd, strict, start_index):
            arr = np.asarray(pairs)
            if (
                arr.ndim == 5
                and arr.shape[0] >= min_batch
                and np.any(arr[:, 0, 0, 0, 0] == marker)
            ):
                _time.sleep(hang_s)
            return inner(pairs, mjd, strict, start_index)

        engine.score_arrays = score_arrays


class RaiseWorkerOnMarker:
    """Picklable pool ``worker_init`` raising a typed error on a marked
    sample.

    ``factory`` is a picklable zero-argument callable (a module-level
    function) returning the exception instance to raise; it is invoked
    inside the worker, so the raised exception exercises the pool's
    exception transport end to end: the exception's pickle round trip
    rides the task's reply, and one that does not round-trip arrives as
    a ``PoolError`` naming its type and message.
    """

    def __init__(self, marker: float, factory) -> None:
        self.marker = float(marker)
        self.factory = factory

    def __call__(self, engine, worker_id: int) -> None:
        """Wrap ``engine.score_arrays`` with the marker tripwire."""
        inner = engine.score_arrays
        marker, factory = self.marker, self.factory

        def score_arrays(pairs, mjd, strict, start_index):
            arr = np.asarray(pairs)
            if arr.ndim == 5 and np.any(arr[:, 0, 0, 0, 0] == marker):
                raise factory()
            return inner(pairs, mjd, strict, start_index)

        engine.score_arrays = score_arrays


class InputCorruption:
    """Base class for deterministic, picklable input corruptors.

    An input corruption maps a batch of stamp-pair arrays
    ``(N, V, 2, S, S)`` to a degraded *copy* — the model of a survey
    feed with missing visits, detector defects, or half-transferred
    cutouts.  Randomised corruptors draw per-sample streams from
    ``SeedSequence(seed, spawn_key=(sample,))``, so the damage done to
    sample ``i`` is independent of batch composition and reproduces
    exactly — the same contract as the builder's per-slot seeding.

    Subclasses implement :meth:`corrupt_sample` on one ``(V, 2, S, S)``
    sample; instances hold only plain attributes so they pickle cleanly
    into worker processes.
    """

    def __call__(self, pairs: np.ndarray) -> np.ndarray:
        """Return a corrupted float copy of the ``(N, V, 2, S, S)`` batch."""
        pairs = np.asarray(pairs)
        if pairs.ndim != 5 or pairs.shape[2] != 2:
            raise ValueError(f"expected (N, V, 2, S, S) pairs, got {pairs.shape}")
        out = pairs.astype(np.float32, copy=True)
        for i in range(out.shape[0]):
            self.corrupt_sample(out[i], i)
        return out

    def corrupt_sample(self, sample: np.ndarray, index: int) -> None:
        """Degrade one ``(V, 2, S, S)`` sample in place."""
        raise NotImplementedError

    def _rng(self, index: int) -> np.random.Generator:
        """Per-sample generator (subclasses with randomness set ``seed``)."""
        return np.random.default_rng(
            np.random.SeedSequence(getattr(self, "seed", 0), spawn_key=(index,))
        )


class DropBand(InputCorruption):
    """Blank out whole bands, as when a filter's visit never arrived.

    ``bands`` is a band index or list of indices (0=g .. 4=y); every
    visit of those bands (optionally restricted to ``epochs``) becomes
    all-NaN in both the reference and observation channel — the serve
    layer must recognise the visit as missing and mask it.
    """

    def __init__(self, bands: int | list[int], epochs: list[int] | None = None,
                 n_bands: int = 5) -> None:
        self.bands = [bands] if isinstance(bands, int) else list(bands)
        self.epochs = None if epochs is None else list(epochs)
        self.n_bands = n_bands
        if any(not 0 <= b < n_bands for b in self.bands):
            raise ValueError(f"band indices must be in [0, {n_bands})")

    def corrupt_sample(self, sample: np.ndarray, index: int) -> None:
        """NaN every visit of the dropped bands."""
        n_epochs = sample.shape[0] // self.n_bands
        epochs = range(n_epochs) if self.epochs is None else self.epochs
        for e in epochs:
            for b in self.bands:
                sample[e * self.n_bands + b] = np.nan


class NaNPixels(InputCorruption):
    """Scatter NaN pixels across the stamps (bad columns, masked pixels).

    ``fraction`` of all pixels of every visit is replaced with NaN, the
    positions drawn from the per-sample stream.  Small fractions are
    repairable by median inpainting; past the engine's repair budget the
    affected visits are rejected outright.
    """

    def __init__(self, fraction: float, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.seed = seed

    def corrupt_sample(self, sample: np.ndarray, index: int) -> None:
        """NaN a deterministic random subset of each channel's pixels."""
        rng = self._rng(index)
        n_pix = sample.shape[-2] * sample.shape[-1]
        n_bad = int(round(self.fraction * n_pix))
        if n_bad == 0:
            return
        for visit in range(sample.shape[0]):
            for channel in range(sample.shape[1]):
                flat = sample[visit, channel].reshape(-1)
                flat[rng.choice(n_pix, size=n_bad, replace=False)] = np.nan


class SaturateRegion(InputCorruption):
    """Clamp a square region of every observation stamp to full well.

    Emulates a bright star bleeding into the cutout: a ``size`` x
    ``size`` block at a per-sample random position is set to ``level``
    (which the serve layer's saturation threshold must catch — the
    values are finite, so a plain NaN check would serve them as real
    flux).
    """

    def __init__(self, size: int, level: float = 30000.0, seed: int = 0) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.level = level
        self.seed = seed

    def corrupt_sample(self, sample: np.ndarray, index: int) -> None:
        """Saturate one block per observation stamp."""
        rng = self._rng(index)
        side = sample.shape[-1]
        size = min(self.size, side)
        for visit in range(sample.shape[0]):
            row = int(rng.integers(0, side - size + 1))
            col = int(rng.integers(0, side - size + 1))
            sample[visit, 1, row : row + size, col : col + size] = self.level


class TruncateCutout(InputCorruption):
    """NaN the trailing rows of every stamp (half-transferred cutout).

    A cutout service that dies mid-stream delivers the leading
    ``1 - fraction`` of each image; the missing remainder arrives as
    NaN rows.  Severities beyond the repair budget knock the whole visit
    out.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction

    def corrupt_sample(self, sample: np.ndarray, index: int) -> None:
        """Blank the last ``fraction`` of rows in both channels."""
        side = sample.shape[-2]
        n_rows = int(round(self.fraction * side))
        if n_rows:
            sample[:, :, side - n_rows :, :] = np.nan


class FailBatch:
    """Daemon scoring ``fault_hook`` raising on chosen micro-batches.

    The serving daemon calls its hook as ``hook(batch_index, n_samples)``
    right before each scoring group runs; raising here models a poison
    batch — a request whose payload makes the scorer itself blow up, not
    merely a degraded input.  Addressing is by the daemon's global batch
    counter, so after the poisoned batch is isolated and its members are
    re-scored individually (each re-score is a *new* batch index), the
    retries pass — exactly the one-bad-apple contract the chaos suite
    asserts.
    """

    def __init__(self, batches: set[int] | str,
                 exc: type[BaseException] = InjectedFault) -> None:
        self.batches = batches
        self.exc = exc

    def __call__(self, batch_index: int, n_samples: int) -> None:
        """Raise on the targeted batch indices (or all with ``"all"``)."""
        if self.batches == "all" or batch_index in self.batches:
            raise self.exc(
                f"injected scoring fault at batch {batch_index} ({n_samples} sample(s))"
            )


class WedgeBatch:
    """Daemon scoring ``fault_hook`` that blocks chosen batches on an event.

    Models a wedged scoring thread (a hung BLAS call, a deadlocked
    allocator): the hook parks the worker on an internal
    :class:`threading.Event` until :meth:`release` — long enough for the
    daemon's watchdog to declare the worker dead, answer its in-flight
    requests and start a replacement.  ``wedged`` is set once the worker
    is actually parked, so tests can synchronise without sleeps.
    """

    def __init__(self, batches: set[int], max_wedge_s: float = 30.0) -> None:
        self.batches = set(batches)
        self.max_wedge_s = max_wedge_s
        self.wedged = threading.Event()
        self._release = threading.Event()

    def __call__(self, batch_index: int, n_samples: int) -> None:
        """Park the calling thread when the batch index is targeted."""
        if batch_index in self.batches:
            self.wedged.set()
            # Bounded so an ungraceful test cannot leak a thread forever.
            self._release.wait(self.max_wedge_s)

    def release(self) -> None:
        """Un-wedge every parked worker thread."""
        self._release.set()


class BurstSchedule:
    """Deterministic open-loop arrival plan for overload tests.

    Produces request send offsets (seconds from test start) for
    ``duration_s`` of traffic at ``qps`` mean rate.  With
    ``burst_factor > 1`` the arrivals are compressed into the leading
    ``1 / burst_factor`` of each one-second window, so the instantaneous
    rate is ``burst_factor * qps`` — the pattern that must trip admission
    control while the mean rate alone would not.  Pure arithmetic, no
    randomness: the same schedule replays exactly.
    """

    def __init__(self, qps: float, duration_s: float, burst_factor: float = 1.0) -> None:
        if qps <= 0 or duration_s <= 0:
            raise ValueError("qps and duration_s must be positive")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        self.qps = qps
        self.duration_s = duration_s
        self.burst_factor = burst_factor

    def offsets(self) -> list[float]:
        """Send times in seconds, sorted ascending."""
        n = int(round(self.qps * self.duration_s))
        times = []
        for k in range(n):
            uniform = k / self.qps
            window = int(uniform)
            within = (uniform - window) / self.burst_factor
            times.append(window + within)
        return times


class ShiftScores:
    """Engine ``score_hook`` that shifts every served probability.

    Models a *poisoned model version* — one whose weights load fine and
    whose scorer never raises, but whose calibration is silently broken
    (a bad retrain, a mismatched preprocessing constant).  Installed on
    an :class:`~repro.serve.engine.InferenceEngine` via the registry
    reload hook, it adds ``delta`` to each probability and clips to
    ``[lo, hi]``, producing a sustained, deterministic divergence that
    the daemon's drift monitor must catch and answer with an automatic
    rollback.  Pure arithmetic, no randomness.
    """

    def __init__(self, delta: float, lo: float = 0.005, hi: float = 0.995) -> None:
        if not lo < hi:
            raise ValueError("lo must be < hi")
        self.delta = float(delta)
        self.lo = float(lo)
        self.hi = float(hi)

    def __call__(self, probs: np.ndarray) -> np.ndarray:
        shifted = np.asarray(probs, dtype=np.float32) + np.float32(self.delta)
        return np.clip(shifted, np.float32(self.lo), np.float32(self.hi))


#: Canonical malformed /classify payloads, each a distinct failure class.
_MALFORMED_BODIES: tuple[tuple[str, bytes], ...] = (
    ("empty", b""),
    ("not-json", b"\x89PNG\r\n\x1a\n not a json document"),
    ("truncated-json", b'{"pairs": [[[[1.0, 2.0'),
    ("wrong-type", b'{"pairs": "nope", "mjd": 3}'),
    ("missing-fields", b'{"hello": "world"}'),
    ("ragged-array", b'{"pairs": [[[[1]], [[1, 2]]]], "mjd": [1.0]}'),
    ("wrong-rank", b'{"pairs": [1.0, 2.0, 3.0], "mjd": [1.0]}'),
    ("nan-mjd-string", b'{"pairs": [], "mjd": ["nan"]}'),
)


def malformed_bodies() -> list[tuple[str, bytes]]:
    """Named malformed request bodies for the daemon chaos suite.

    Every entry must draw a typed ``bad_request`` response — never a
    traceback, never a hung connection, and never collateral damage to a
    clean request sharing the batch window.
    """
    return list(_MALFORMED_BODIES)


def send_slow_request(
    host: str,
    port: int,
    body: bytes,
    path: str = "/classify",
    chunk_size: int = 64,
    delay_s: float = 0.05,
    timeout_s: float = 30.0,
) -> tuple[int, bytes]:
    """POST ``body`` one dribbled chunk at a time; return (status, body).

    A deterministic slow-loris-shaped client: headers go out at once,
    then the body trickles in ``chunk_size``-byte pieces separated by
    ``delay_s`` pauses.  The daemon must either serve the request (when
    the dribble finishes inside its client deadline) or answer with a
    typed ``slow_client`` response — it must never park a handler thread
    indefinitely.
    """
    import time as _time

    with socket.create_connection((host, port), timeout=timeout_s) as conn:
        conn.sendall(
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        try:
            for start in range(0, len(body), chunk_size):
                conn.sendall(body[start : start + chunk_size])
                if start + chunk_size < len(body):
                    _time.sleep(delay_s)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server may have already answered and closed its side
        chunks = []
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                chunks.append(data)
        except (ConnectionResetError, TimeoutError):
            pass
    raw = b"".join(chunks)
    if not raw.startswith(b"HTTP/"):
        raise ConnectionError("no HTTP response received")
    status = int(raw.split(b" ", 2)[1])
    payload = raw.split(b"\r\n\r\n", 1)[1] if b"\r\n\r\n" in raw else b""
    return status, payload


def truncate_file(path: str | os.PathLike, keep_fraction: float = 0.5) -> int:
    """Truncate a file to ``keep_fraction`` of its size; returns new size.

    Used to emulate a crash mid-write of a non-atomic producer or a
    partially transferred artifact.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = os.fspath(path)
    size = os.path.getsize(path)
    new_size = int(size * keep_fraction)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size
