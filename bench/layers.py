"""The repo's layers as the traced run sees them.

:func:`engine_targets` lists the public names wrapped around one
:class:`~repro.serve.InferenceEngine` call, :data:`CLASSIFY_EXPECTED`
how often each must fire, and :func:`classify_metrics` turns the spans
of traced ``classify_arrays`` calls into per-layer metrics.  A
``*.share`` is self time over the total time of the root
``classify_arrays`` spans, except ``cnn.share``, which is the CNN's
inclusive time; the self shares of one workload sum to 1.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Sequence

import numpy as np

import repro.core.flux_cnn as flux_cnn
import repro.serve.engine as engine_module
from repro import nn

from .tracing import Span, Target, children_of, root_of, self_times

ROOT = "classify_arrays"
#: Conv blocks of the paper's CNN (Fig. 7).
N_BLOCKS = 3

CLASSIFY_EXPECTED = {
    (ROOT, "repair"): 1,
    (ROOT, "cnn"): 1,
    (ROOT, "features"): 1,
    (ROOT, "classifier"): 1,
    ("cnn", "cnn.signed_log"): 1,
    ("cnn", "cnn.conv"): N_BLOCKS,
    ("cnn", "cnn.fc"): 1,
    **{("cnn", f"cnn.prelu{k}"): 1 for k in range(1, N_BLOCKS + 1)},
    **{("cnn", f"cnn.pool{k}"): 1 for k in range(1, N_BLOCKS + 1)},
}

#: Span key (conv spans numbered by call order) -> self-share metric.
CLASSIFY_SHARES = {
    ROOT: "engine.self_share",
    "repair": "repair.share",
    "cnn": "cnn.self_share",
    "cnn.signed_log": "cnn.signed_log.share",
    **{f"cnn.conv{k}": f"cnn.conv{k}.share" for k in range(1, N_BLOCKS + 1)},
    **{f"cnn.prelu{k}": f"cnn.prelu{k}.share" for k in range(1, N_BLOCKS + 1)},
    **{f"cnn.pool{k}": f"cnn.pool{k}.share" for k in range(1, N_BLOCKS + 1)},
    "cnn.fc": "cnn.fc.share",
    "features": "features.share",
    "classifier": "classifier.share",
}

TRAIN_ROOT = "train.step"
TRAIN_SHARES = {
    "train.zero_grad": "train.zero_grad_share",
    "train.forward": "train.forward_share",
    "train.backward": "train.backward_share",
    "train.optim": "train.optim_share",
}


def _repair_attrs(args: tuple, kwargs: dict, result: object) -> dict:
    _, diagnostics, _ = result
    return {
        "visits": len(diagnostics),
        "flagged": sum(not d.clean for d in diagnostics),
        "rejected": sum(d.rejected for d in diagnostics),
        "clipped": sum(d.n_clipped > 0 for d in diagnostics),
    }


def _rows_attrs(args: tuple, kwargs: dict, result: object) -> dict:
    return {"rows": len(args[0])}


def _conv_attrs(args: tuple, kwargs: dict, result: object) -> dict:
    weight, out = args[1].data, result.data
    return {
        "n": out.shape[0],
        "cout": weight.shape[0],
        "k": int(np.prod(weight.shape[1:])),
        "l": out.shape[2] * out.shape[3],
        "itemsize": out.dtype.itemsize,
    }


def engine_targets(engine: object) -> list[Target]:
    """Public names one ``engine.classify_arrays`` call goes through."""
    cnn = engine.pipeline.cnn
    prelus = [m for m in cnn.convs if isinstance(m, nn.PReLU)]
    pools = [m for m in cnn.convs if isinstance(m, nn.MaxPool2d)]
    return [
        (engine, "classify_arrays", ROOT, None),
        (engine_module, "diagnose_and_repair_batch", "repair", _repair_attrs),
        (cnn, "fused_forward", "cnn", _rows_attrs),
        (flux_cnn.F, "signed_log10", "cnn.signed_log", None),
        (flux_cnn.nn, "conv2d", "cnn.conv", _conv_attrs),
        *[(m, "forward", f"cnn.prelu{k}", None) for k, m in enumerate(prelus, 1)],
        *[(m, "forward", f"cnn.pool{k}", None) for k, m in enumerate(pools, 1)],
        (cnn.fc, "forward", "cnn.fc", None),
        (engine_module, "masked_features_from_arrays", "features", None),
        (engine.pipeline.classifier, "predict_proba", "classifier", None),
    ]


def fc_flops_per_row(engine: object) -> int:
    """Multiply-adds of the CNN's fully connected head, counted as 2 FLOPs each."""
    return sum(
        2 * m.weight.data.size for m in engine.pipeline.cnn.fc if isinstance(m, nn.Linear)
    )


def span_keys(spans: Sequence[Span]) -> list[str]:
    """Span names, with the conv spans under each parent numbered in call order."""
    keys = [span.name for span in spans]
    for kids in children_of(spans).values():
        convs = [c for c in kids if spans[c].name == "cnn.conv"]
        for k, c in enumerate(convs, 1):
            keys[c] = f"cnn.conv{k}"
    return keys


def self_shares(
    spans: Sequence[Span], root: str, metrics: dict[str, str]
) -> dict[str, float]:
    """Self time per span key over the total duration of the ``root`` spans."""
    keys, own, roots = span_keys(spans), self_times(spans), root_of(spans)
    total = sum(s.duration for s in spans if s.parent is None and s.name == root)
    per_key: dict[str, float] = defaultdict(float)
    for i, key in enumerate(keys):
        if spans[roots[i]].name == root:
            per_key[key] += own[i]
    return {metric: per_key[key] / total for key, metric in metrics.items()}


def classify_metrics(spans: Sequence[Span], fc_flops: int) -> dict[str, float]:
    """Per-layer metrics of traced ``classify_arrays`` calls (see the module docstring)."""
    keys = span_keys(spans)
    roots = [s for s in spans if s.parent is None and s.name == ROOT]
    total = sum(s.duration for s in roots)
    metrics = self_shares(spans, ROOT, CLASSIFY_SHARES)
    metrics["classify.ms_per_batch"] = statistics.median(s.duration for s in roots) * 1e3

    def named(key: str) -> list[Span]:
        return [s for s, k in zip(spans, keys) if k == key]

    repairs = named("repair")
    visits = sum(s.attrs["visits"] for s in repairs)
    metrics["repair.us_per_visit"] = sum(s.duration for s in repairs) / visits * 1e6
    for field in ("flagged", "rejected", "clipped"):
        metrics[f"repair.{field}_visit_share"] = (
            sum(s.attrs[field] for s in repairs) / visits
        )

    cnns = named("cnn")
    rows = sum(s.attrs["rows"] for s in cnns)
    metrics["cnn.share"] = sum(s.duration for s in cnns) / total
    metrics["cnn.us_per_row"] = sum(s.duration for s in cnns) / rows * 1e6
    metrics["cnn.rows_per_batch"] = rows / len(cnns)

    conv_flops = 0.0
    for k in range(1, N_BLOCKS + 1):
        convs = named(f"cnn.conv{k}")
        flops = sum(2 * s.attrs["n"] * s.attrs["cout"] * s.attrs["k"] * s.attrs["l"] for s in convs)
        conv_flops += flops
        metrics[f"cnn.conv{k}.gflops"] = flops / sum(s.duration for s in convs) / 1e9
        first = convs[0].attrs
        metrics[f"cnn.conv{k}.bytes_per_row"] = first["k"] * first["l"] * first["itemsize"]
    metrics["cnn.flops_per_row"] = conv_flops / rows + fc_flops
    return metrics


def conv_gemm_shares(spans: Sequence[Span]) -> dict[str, float]:
    """Bare ``np.matmul`` time over conv span time, per conv, at the first call's shapes.

    The rest of a conv span is its im2col copy and bias add.
    """
    keys = span_keys(spans)
    metrics = {}
    for k in range(1, N_BLOCKS + 1):
        convs = [s for s, key in zip(spans, keys) if key == f"cnn.conv{k}"]
        shape = convs[0].attrs
        same = [s.duration for s in convs if s.attrs == shape]
        gemm = bare_gemm_seconds(shape["n"], shape["cout"], shape["k"], shape["l"])
        metrics[f"cnn.conv{k}.gemm_share"] = gemm / statistics.median(same)
    return metrics


#: Timed calls (after one warm-up) behind each bare-GEMM median.
GEMM_REPEATS = 7
#: Side of the square float32 GEMM that sets the ceiling.
SGEMM_SIZE = 1024


def _median_seconds(fn) -> float:
    fn()
    times = []
    for _ in range(GEMM_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bare_gemm_seconds(n: int, cout: int, k: int, l: int) -> float:
    """Median time of the conv's GEMM alone: ``(cout, k) @ (n, k, l)`` in float32."""
    weight = np.full((cout, k), 0.5, dtype=np.float32)
    cols = np.full((n, k, l), 0.5, dtype=np.float32)
    out = np.empty((n, cout, l), dtype=np.float32)
    return _median_seconds(lambda: np.matmul(weight, cols, out=out))


def sgemm_gflops() -> float:
    """Float32 SGEMM_SIZE³ GEMM rate at this process's BLAS thread count: the CNN's ceiling."""
    a = np.full((SGEMM_SIZE, SGEMM_SIZE), 0.5, dtype=np.float32)
    b = np.full((SGEMM_SIZE, SGEMM_SIZE), 0.25, dtype=np.float32)
    out = np.empty((SGEMM_SIZE, SGEMM_SIZE), dtype=np.float32)
    return 2 * SGEMM_SIZE**3 / _median_seconds(lambda: np.matmul(a, b, out=out)) / 1e9
