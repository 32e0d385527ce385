"""Shared test utilities: numerical gradient checking, daemon harness."""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request
from typing import Callable, Iterator

import numpy as np

from repro.nn import Tensor, preserve_float64


def numerical_grad(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn(x)
        flat[i] = original - eps
        f_minus = fn(x)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradient(
    build: Callable[[Tensor], Tensor],
    x: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-4,
) -> None:
    """Assert autograd gradient of ``build(x).sum()`` matches finite differences.

    ``build`` must map a Tensor to a Tensor using only repro.nn operations.
    The whole comparison runs under :class:`repro.nn.preserve_float64`
    (the documented opt-out of the float32 dtype policy) so finite
    differences stay numerically tight.
    """
    x = np.asarray(x, dtype=np.float64)

    with preserve_float64():
        tensor = Tensor(x.copy(), requires_grad=True)
        out = build(tensor)
        out.sum().backward()
        analytic = tensor.grad

        def scalar_fn(arr: np.ndarray) -> float:
            t = Tensor(arr.copy())
            return float(build(t).numpy().sum())

        numeric = numerical_grad(scalar_fn, x)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ----------------------------------------------------------------------
# Serving-daemon harness (tests/test_daemon*.py, benchmarks)
# ----------------------------------------------------------------------
def make_serve_engine(seed: int = 0):
    """A tiny warm :class:`InferenceEngine` — no dataset build required."""
    from repro.core import SupernovaPipeline
    from repro.serve import FluxPrior, InferenceEngine

    pipe = SupernovaPipeline(input_size=36, units=8, epochs_used=1, seed=seed)
    return InferenceEngine(pipe, prior=FluxPrior.neutral())


def make_serve_sample(engine, seed: int = 0, stamp: int = 40):
    """One valid ``(V, 2, S, S)`` sample + its ``(V,)`` MJD vector."""
    rng = np.random.default_rng(seed)
    visits = engine._n_used_visits
    pairs = rng.normal(0.0, 30.0, size=(visits, 2, stamp, stamp)).astype(np.float32)
    mjd = (57000.0 + np.arange(visits) * 0.01).astype(np.float32)
    return pairs, mjd


def smoke_classify_workload(seed: int, n: int = 32, stamp: int = 40):
    """Engine + clean traffic of the timing gates: ``(engine, pairs, mjd)``.

    A 36 px CNN with the default classifier, and ``n`` samples of
    N(0, 30) stamps with a point source on the observation channel (a
    non-trivial difference image for the sigma-clip stage).
    """
    from repro.core import SupernovaPipeline
    from repro.serve import FluxPrior, InferenceEngine

    pipeline = SupernovaPipeline(input_size=36, epochs_used=1, seed=seed)
    pipeline.cnn.eval()
    pipeline.classifier.eval()
    engine = InferenceEngine(pipeline, prior=FluxPrior.neutral())
    visits = engine._n_used_visits
    rng = np.random.default_rng(seed)
    pairs = rng.normal(0.0, 30.0, size=(n, visits, 2, stamp, stamp)).astype(
        np.float32
    )
    yy, xx = np.mgrid[0:stamp, 0:stamp]
    pairs[..., 1, :, :] += 200.0 * np.exp(
        -((yy - stamp // 2) ** 2 + (xx - stamp // 2) ** 2) / (2 * 2.5**2)
    ).astype(np.float32)
    mjd = 57000.0 + np.arange(n * visits).reshape(n, visits) * 0.01
    return engine, pairs, mjd


def save_model_variant(directory, weight_scale: float = 1.0,
                       bias_shift: float = 0.0) -> None:
    """Save :func:`make_serve_engine` (seed 0) with its classifier's
    output layer scaled by ``weight_scale`` and its bias shifted by
    ``bias_shift``: versions whose scores differ by a chosen amount."""
    engine = make_serve_engine(seed=0)
    output = engine.pipeline.classifier.network[-1]
    output.weight.data *= np.float32(weight_scale)
    output.bias.data += np.float32(bias_shift)
    engine.save(str(directory))


def save_gate_dataset(path, n: int, seed: int = 0, stamp: int = 40) -> None:
    """Write an ``n``-sample, one-epoch dataset of N(0, 30) stamps with a
    seeded point source per visit: a fixed set for the promote gate."""
    from repro.datasets import SupernovaDataset, save_dataset
    from repro.datasets.sample import N_BANDS

    rng = np.random.default_rng(seed)
    pairs = rng.normal(0.0, 30.0, size=(n, N_BANDS, 2, stamp, stamp))
    yy, xx = np.mgrid[0:stamp, 0:stamp]
    source = np.exp(-((yy - stamp // 2) ** 2 + (xx - stamp // 2) ** 2) / 12.5)
    pairs[:, :, 1] += rng.uniform(0.0, 400.0, size=(n, N_BANDS, 1, 1)) * source
    save_dataset(
        SupernovaDataset(
            pairs=pairs.astype(np.float32),
            visit_mjd=57000.0 + np.tile(np.arange(N_BANDS) * 0.01, (n, 1)),
            visit_band=np.tile(np.arange(N_BANDS), (n, 1)),
            true_flux=np.zeros((n, N_BANDS)),
            labels=np.arange(n) % 2,
            sn_types=np.array(["Ia" if i % 2 else "II" for i in range(n)]),
            redshifts=np.full(n, 0.3),
            host_mag=np.full(n, 21.0),
            sn_offset=np.zeros((n, 2)),
            peak_mjd=np.full(n, 57000.0),
        ),
        path,
    )


class FailWorkerBoot:
    """Picklable pool ``worker_init`` that fails one worker's boot, so
    ``ScoringPool.start()`` raises with the other workers already up."""

    def __init__(self, worker_id: int = 1) -> None:
        self.worker_id = worker_id

    def __call__(self, engine, worker_id: int) -> None:
        if worker_id == self.worker_id:
            raise RuntimeError(f"worker {worker_id} refused to boot (injected)")


def classify_body(pairs, mjd, **extra) -> bytes:
    """The JSON body ``POST /classify`` expects for one sample."""
    doc = {"pairs": np.asarray(pairs).tolist(), "mjd": np.asarray(mjd).tolist()}
    doc.update(extra)
    return json.dumps(doc).encode()


@contextlib.contextmanager
def running_daemon(engine, config=None, fault_hook=None) -> Iterator:
    """Start an in-process :class:`ServingDaemon`; always drain on exit."""
    from repro.serve import ServingDaemon

    daemon = ServingDaemon(engine, config, fault_hook=fault_hook)
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.drain(reason="test-teardown")
        daemon.wait()


@contextlib.contextmanager
def running_registry_daemon(
    registry, config=None, guard=None, reload_hook=None
) -> Iterator:
    """Start a registry-backed daemon serving the production version.

    The engine is loaded from the registry (``engine=None``), exercising
    the same verify + ``from_directory`` path the ``repro serve
    --registry`` CLI uses.  ``reload_hook(engine, version)`` is the chaos
    seam for poisoning a specific version's scores.
    """
    from repro.serve import ServingDaemon

    daemon = ServingDaemon(
        None, config, registry=registry, guard=guard, reload_hook=reload_hook
    )
    daemon.start()
    try:
        yield daemon
    finally:
        daemon.drain(reason="test-teardown")
        daemon.wait()


def post_classify(port: int, body: bytes, timeout: float = 30.0):
    """POST one body to ``/classify``; returns ``(status, decoded_json)``.

    Non-2xx responses are returned, not raised — every daemon answer is
    a typed JSON document and tests assert on the type.
    """
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/classify",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def http_get(port: int, path: str, timeout: float = 10.0):
    """GET a daemon endpoint; returns ``(status, raw_bytes)``."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


_LISTENING = re.compile(r"serving on ([\d.]+):(\d+)")


def spawn_serve(model_dir, *extra_args) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve --model DIR --port 0`` in a child process;
    returns ``(process, port)`` once its listening line is printed."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", str(model_dir), "--port", "0", *extra_args,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    # The listening line is the first thing serve prints to stderr.
    line = process.stderr.readline()
    match = _LISTENING.search(line)
    if match is None:
        process.kill()
        raise AssertionError(f"no listening line, got {line!r}")
    return process, int(match.group(2))
