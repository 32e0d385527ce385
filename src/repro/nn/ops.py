"""Convolution and pooling primitives with autograd support.

The band-wise CNN of the paper (Fig. 7) is built from 5x5 convolutions and
2x2 max-pooling.  These are implemented here on top of
:class:`repro.nn.tensor.Tensor` using an ``im2col`` formulation: the input
is expanded into a column matrix so that convolution becomes a single
matrix multiplication, which NumPy executes through BLAS.

Hot-path layout
---------------
The column matrix is materialised in the *natural* ``(N, C·KH·KW,
OH·OW)`` order of the sliding-window view — the copy then reads the
padded input as ``KH·KW`` shifted images (near-sequential) instead of
gathering one patch row per output pixel, and the GEMM
``weight (C_out, C·KH·KW) @ cols`` writes straight into the ``NCHW``
output buffer via ``out=``, with the bias added in place.  This removes
both full transposed copies of the previous formulation.  During
inference (no autograd recording) the column matrix is streamed, not
cached: a few rows at a time are copied into one cache-sized buffer
(:data:`_COL_CHUNK_BYTES`) and multiplied straight into their slice of
the output, so the copy's writes are still in cache when the GEMM reads
them.  Only the conv *output* may be borrowed from the shape-keyed,
thread-local workspace cache (``conv2d(scratch_out=True)``).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import trace as _trace
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "pad2d",
    "workspace_stats",
    "workspace_total_stats",
    "workspace_clear",
]

#: Workspaces are per-thread (the daemon's scoring thread and a wedged
#: one it replaced run conv2d concurrently) and capped so pathological shape churn
#: cannot hoard memory.
_MAX_WORKSPACES = 32

_workspaces = threading.local()

#: Bytes of column matrix the no-graph path of :func:`conv2d` builds
#: before each GEMM: a chunk of ``max(1, budget // row_bytes)`` rows,
#: capped at the batch.  Small enough to stay in cache between the
#: im2col copy and the GEMM that reads it (DESIGN §8 has the sweep).
_COL_CHUNK_BYTES = 1 << 20


class _WorkspaceState:
    """One thread's cache plus counters; weakly tracked for aggregation.

    The only strong reference lives in the owning thread's
    ``threading.local`` slot, so a dead thread's state (and its cached
    buffers) is garbage-collected and silently drops out of
    :data:`_all_states` — :func:`workspace_total_stats` never counts
    memory that has already been freed.
    """

    __slots__ = ("cache", "hits", "misses", "evictions", "__weakref__")

    def __init__(self) -> None:
        self.cache: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def bytes(self) -> int:
        return sum(buf.nbytes for buf in self.cache.values())

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self.cache),
            "bytes": self.bytes(),
            "hit_rate": self.hits / total if total else 0.0,
        }


_all_states: "weakref.WeakSet[_WorkspaceState]" = weakref.WeakSet()
_all_states_lock = threading.Lock()


def _state() -> _WorkspaceState:
    state: _WorkspaceState | None = getattr(_workspaces, "state", None)
    if state is None:
        state = _WorkspaceState()
        _workspaces.state = state
        with _all_states_lock:
            _all_states.add(state)
    return state


def _bucket_batch(batch: int) -> int:
    """Round the batch dimension up to the next power of two (min 1).

    The daemon's adaptive micro-batches vary request to request; keyed
    on the exact batch size they would mint a fresh workspace per size
    and thrash past :data:`_MAX_WORKSPACES`.  Bucketing collapses every
    batch in ``(2^(k-1), 2^k]`` onto one allocation that is sliced down,
    so steady-state traffic reuses a handful of buffers.
    """
    return 1 << max(batch - 1, 0).bit_length()


def _workspace(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A reusable scratch view for this thread.

    ``shape[0]`` (the batch dimension) is bucketed to the next power of
    two; the backing buffer is allocated at the bucket size and a
    ``shape[0]``-row view is returned.  Eviction is LRU, so a burst of
    unusual shapes cannot flush the steady-state working set the way the
    previous clear-everything policy did.
    """
    state = _state()
    cache = state.cache
    batch = shape[0]
    cap = _bucket_batch(batch)
    key = (cap, *shape[1:], np.dtype(dtype).str)
    buf = cache.get(key)
    if buf is None:
        state.misses += 1
        while len(cache) >= _MAX_WORKSPACES:
            cache.popitem(last=False)
            state.evictions += 1
        buf = np.empty((cap, *shape[1:]), dtype=dtype)
        cache[key] = buf
    else:
        state.hits += 1
        cache.move_to_end(key)
    return buf[:batch]


def workspace_stats() -> dict:
    """Hit/miss/eviction counters and size of this thread's cache."""
    return _state().stats()


def workspace_total_stats() -> dict:
    """Aggregate workspace stats across every live thread.

    Each of the serving daemon's scoring threads keeps a cache;
    this is the process-wide view the `/metrics` gauges export.  Dead
    threads' states have been garbage-collected by the time they leave
    :data:`_all_states`, so ``bytes`` reflects memory still held.
    """
    totals = {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "entries": 0,
        "bytes": 0,
        "threads": 0,
    }
    with _all_states_lock:
        states = list(_all_states)
    for state in states:
        stats = state.stats()
        totals["threads"] += 1
        for key in ("hits", "misses", "evictions", "entries", "bytes"):
            totals[key] += stats[key]
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


def workspace_clear() -> None:
    """Drop this thread's workspace cache and reset the counters."""
    state = _state()
    state.cache = OrderedDict()
    state.hits = 0
    state.misses = 0
    state.evictions = 0


def _im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> np.ndarray:
    """Expand ``x`` (N, C, H, W) into sliding windows.

    Returns a **view** of shape (N, C, kernel_h, kernel_w, out_h, out_w);
    callers must not write through it.
    """
    batch, channels, height, width = x.shape
    out_h = (height - kernel_h) // stride + 1
    out_w = (width - kernel_w) // stride + 1
    s_n, s_c, s_h, s_w = x.strides
    shape = (batch, channels, kernel_h, kernel_w, out_h, out_w)
    strides = (s_n, s_c, s_h, s_w, s_h * stride, s_w * stride)
    return as_strided(x, shape=shape, strides=strides)


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
) -> np.ndarray:
    """Scatter-add column gradients back to the (padded) input layout.

    ``cols`` has shape (N, C, kernel_h, kernel_w, out_h, out_w).
    """
    batch, channels, height, width = input_shape
    out_h = cols.shape[4]
    out_w = cols.shape[5]
    dx = np.zeros(input_shape, dtype=cols.dtype)
    for i in range(kernel_h):
        i_stop = i + stride * out_h
        for j in range(kernel_w):
            j_stop = j + stride * out_w
            dx[:, :, i:i_stop:stride, j:j_stop:stride] += cols[:, :, i, j]
    return dx


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    scratch_out: bool = False,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Without a graph to record, the column matrix is never built whole:
    rows stream through one buffer of about :data:`_COL_CHUNK_BYTES`,
    and each chunk's GEMM writes its rows of the output.  ``np.matmul``
    on ``(n, K, L)`` runs one GEMM per row, so the output is the
    whole-batch one bit for bit.  A recorded graph keeps the whole
    column matrix, because its backward reads it.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Filter bank of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Standard convolution hyper-parameters (symmetric).
    scratch_out:
        Borrow the output buffer from the thread-local workspace cache
        instead of allocating a fresh array (inference only — ignored
        when the call records a graph).  The returned tensor's data is
        only valid until the next same-shape borrow, so callers must
        fully consume it before issuing another identical conv — the
        layer-sequential inference loops do.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D weight, got shape {weight.shape}")
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )

    with _trace.span("nn.conv2d"):
        x_padded = pad2d(x.data, padding)
        batch = x_padded.shape[0]
        cols = _im2col(x_padded, kernel_h, kernel_w, stride)
        out_h, out_w = cols.shape[4], cols.shape[5]
        k_dim = in_channels * kernel_h * kernel_w
        n_loc = out_h * out_w
        out_dtype = np.result_type(x.data.dtype, weight.data.dtype)

        requires = is_grad_enabled() and (
            x.requires_grad
            or weight.requires_grad
            or (bias is not None and bias.requires_grad)
        )
        w_matrix = weight.data.reshape(out_channels, k_dim)
        w_gemm = w_matrix if w_matrix.dtype == out_dtype else w_matrix.astype(out_dtype)
        window_shape = (in_channels, kernel_h, kernel_w, out_h, out_w)
        if requires:
            # The column matrix is captured by the backward closure and
            # must outlive this call.
            col_matrix = np.empty((batch, k_dim, n_loc), dtype=out_dtype)
            np.copyto(col_matrix.reshape(batch, *window_shape), cols)
            out_data = np.empty((batch, out_channels, n_loc), dtype=out_dtype)
            np.matmul(w_gemm, col_matrix, out=out_data)
        else:
            if scratch_out:
                out_data = _workspace((batch, out_channels, n_loc), out_dtype)
            else:
                out_data = np.empty((batch, out_channels, n_loc), dtype=out_dtype)
            # Stream the rows through one cache-sized column buffer.
            row_bytes = max(k_dim * n_loc * np.dtype(out_dtype).itemsize, 1)
            step = max(1, min(batch, _COL_CHUNK_BYTES // row_bytes))
            chunk = np.empty((step, k_dim, n_loc), dtype=out_dtype)
            for start in range(0, batch, step):
                stop = min(start + step, batch)
                rows = chunk[: stop - start]
                np.copyto(rows.reshape(stop - start, *window_shape), cols[start:stop])
                np.matmul(w_gemm, rows, out=out_data[start:stop])
        if bias is not None:
            out_data += bias.data.reshape(1, out_channels, 1)
        out_data = out_data.reshape(batch, out_channels, out_h, out_w)

        padded_shape = x_padded.shape

        def backward(grad: np.ndarray) -> None:
            grad3 = grad.reshape(batch, out_channels, n_loc)
            if weight.requires_grad:
                # dw[o, k] = sum_{n, l} grad[n, o, l] * cols[n, k, l]
                dw = np.matmul(grad3, col_matrix.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(dw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad3.sum(axis=(0, 2)))
            if x.requires_grad:
                dcols = np.matmul(w_matrix.T, grad3)  # (N, C*KH*KW, OH*OW)
                dx_padded = _col2im(
                    dcols.reshape(
                        batch, in_channels, kernel_h, kernel_w, out_h, out_w
                    ),
                    padded_shape,
                    kernel_h,
                    kernel_w,
                    stride,
                )
                if padding:
                    dx = dx_padded[:, :, padding:-padding, padding:-padding]
                else:
                    dx = dx_padded
                x._accumulate(dx)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over square windows.

    The paper notes max-pooling is the most important component of the
    band-wise CNN since each stamp contains at most one supernova; the
    pooled response keeps the strongest local detection.

    Inputs whose spatial size is not divisible by the window are cropped at
    the bottom/right edge (floor behaviour, as in PyTorch's default).
    """
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"pooling window {kernel_size} too large for input {x.shape}")

    if not (is_grad_enabled() and x.requires_grad):
        # Inference fast path: the window max is separable, so take it
        # over the window's rows first (k strided row views, each read
        # along whole contiguous rows), then over the columns of that
        # (N, C, oh, W) result.  ``max`` is exact in any order, so this
        # equals the argmax path below bit for bit; NaN propagates
        # through ``np.maximum`` as it wins the argmax.  The first
        # ``maximum`` of each pass pairs the first and last tap into a
        # new array (a copy when k = 1); the middle taps follow in place.
        row_span = stride * (out_h - 1) + 1
        col_span = stride * (out_w - 1) + 1
        taps = [x.data[:, :, i : i + row_span : stride] for i in range(kernel_size)]
        rows = np.maximum(taps[0], taps[-1])
        for tap in taps[1:-1]:
            np.maximum(rows, tap, out=rows)
        taps = [rows[..., j : j + col_span : stride] for j in range(kernel_size)]
        out = np.maximum(taps[0], taps[-1])
        for tap in taps[1:-1]:
            np.maximum(out, tap, out=out)
        return Tensor(out)

    cols = _im2col(x.data, kernel_size, kernel_size, stride)
    # (N, C, K, K, oh, ow) -> (N, C, oh, ow, K*K)
    windows = cols.transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, channels, out_h, out_w, kernel_size * kernel_size
    )
    arg = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    out_data = np.ascontiguousarray(out_data)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dwindows = np.zeros(
            (batch, channels, out_h, out_w, kernel_size * kernel_size), dtype=grad.dtype
        )
        np.put_along_axis(dwindows, arg[..., None], grad[..., None], axis=-1)
        dcols = dwindows.reshape(
            batch, channels, out_h, out_w, kernel_size, kernel_size
        ).transpose(0, 1, 4, 5, 2, 3)
        x._accumulate(_col2im(dcols, x.shape, kernel_size, kernel_size, stride))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling — provided for the pooling ablation of Table 1."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"pooling window {kernel_size} too large for input {x.shape}")

    cols = _im2col(x.data, kernel_size, kernel_size, stride)
    out_data = cols.mean(axis=(2, 3))
    out_data = np.ascontiguousarray(out_data)
    scale = 1.0 / (kernel_size * kernel_size)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dcols = np.broadcast_to(
            (grad * scale)[:, :, None, None, :, :],
            (batch, channels, kernel_size, kernel_size, out_h, out_w),
        ).astype(grad.dtype)
        x._accumulate(_col2im(dcols, x.shape, kernel_size, kernel_size, stride))

    return Tensor._make(out_data, (x,), backward)
