"""Reverse-mode automatic differentiation on NumPy arrays.

This module implements the :class:`Tensor` class that underpins every
neural-network component in :mod:`repro.nn`.  A ``Tensor`` wraps a NumPy
array together with an optional gradient buffer and a closure that knows
how to propagate gradients to its parents.  Calling :meth:`Tensor.backward`
on a scalar loss walks the recorded computation graph in reverse
topological order, exactly like PyTorch's eager autograd.

Only the operations required by the paper's models (and their tests) are
implemented, but each one supports full NumPy broadcasting with correct
gradient "unbroadcasting".
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "preserve_float64",
    "float64_preserved",
]

class _TensorFlags(threading.local):
    """Per-thread autograd/dtype mode flags.

    Thread-local (like ``torch.no_grad``) so that inference threads —
    the serving daemon's scoring thread and a wedged one it replaced
    calling ``predict()`` concurrently — cannot tear the enter/exit save-restore
    of a shared flag and leave graph recording disabled for the whole
    process.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.keep_float64 = False


_FLAGS = _TensorFlags()


class no_grad:
    """Context manager that disables graph recording.

    Mirrors ``torch.no_grad()``: inside the block, operations on tensors
    produce result tensors with ``requires_grad=False`` and no parents, so
    inference does not accumulate a computation graph.  The flag is
    thread-local; entering in one thread does not affect the others.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _FLAGS.grad_enabled
        _FLAGS.grad_enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _FLAGS.grad_enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _FLAGS.grad_enabled


class preserve_float64:
    """Context manager that opts out of the float32 dtype policy.

    By default every :class:`Tensor` stores float32 — including float64
    inputs, which are *downcast* so that a stray float64 array can never
    silently promote a whole forward pass to double precision and halve
    GEMM throughput.  Inside this context float64 arrays keep their
    dtype, which the numerical-gradient test helpers rely on::

        with preserve_float64():
            t = Tensor(np.zeros(3, dtype=np.float64))  # stays float64
    """

    def __enter__(self) -> "preserve_float64":
        self._previous = _FLAGS.keep_float64
        _FLAGS.keep_float64 = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        _FLAGS.keep_float64 = self._previous


def float64_preserved() -> bool:
    """Whether :class:`Tensor` currently keeps float64 inputs as float64."""
    return _FLAGS.keep_float64


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast dimension.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Data is stored as ``float32`` — the
        precision the paper's GPU framework would have used — and
        float64 inputs are *downcast* so mixed-precision GEMMs cannot
        sneak into the hot path; float16 inputs are promoted to float32.
        Wrap construction in :class:`preserve_float64` to keep float64
        end to end (numerical gradient checks), or pass ``dtype``
        explicitly.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Explicit storage dtype, bypassing the float32 policy.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            if arr.dtype != np.dtype(dtype):
                arr = arr.astype(dtype)
        elif arr.dtype != np.float32 and not (
            arr.dtype == np.float64 and _FLAGS.keep_float64
        ):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _FLAGS.grad_enabled
        self._parents: tuple[Tensor, ...] = tuple(_parents) if _FLAGS.grad_enabled else ()
        self._backward = _backward if _FLAGS.grad_enabled else None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result node, recording provenance if grad is enabled."""
        requires = _FLAGS.grad_enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar roots.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        # Topological sort (iterative to survive deep graphs).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Free interior gradients and graph edges eagerly: only leaves
            # (no parents) keep their gradient after backward().
            if node._parents:
                if node is not self:
                    node.grad = None
                node._parents = ()
                node._backward = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: object) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: object) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: object) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: object) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
                )

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: object) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic function: exp is only ever taken of a
        # non-positive argument, so it cannot overflow.
        x = self.data
        exp_neg_abs = np.exp(-np.abs(x))
        out_data = np.where(x >= 0, 1.0 / (1.0 + exp_neg_abs), exp_neg_abs / (1.0 + exp_neg_abs))
        out_data = out_data.astype(x.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient is passed through inside the range only."""
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                mask = np.ones_like(self.data)
                if low is not None:
                    mask = mask * (self.data > low)
                if high is not None:
                    mask = mask * (self.data < high)
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else n for i, n in enumerate(self.shape)]
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(grad * mask)
                return
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten all dimensions from ``start_dim`` onward."""
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index: object) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; without a graph, each row of a 2-D product alone.

        BLAS blocks a GEMM by its shape, so a row of ``(M, K) @ (K, N)``
        can differ in the last bit from the same row in another batch.
        Stacked ``(1, K) @ (K, N)`` products make a row's result
        independent of its batch-mates.  Training keeps the single GEMM.
        """
        other_t = as_tensor(other)
        recording = _FLAGS.grad_enabled and (self.requires_grad or other_t.requires_grad)
        if not recording and self.data.ndim == 2 and other_t.data.ndim == 2:
            return Tensor(np.matmul(self.data[:, None, :], other_t.data)[:, 0, :])
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data) if grad.ndim else grad * other_t.data)
                else:
                    g = grad @ np.swapaxes(other_t.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other_t._accumulate(_unbroadcast(g, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: object) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: object) -> np.ndarray:
        return self.data < as_tensor(other).data


def as_tensor(value: object) -> Tensor:
    """Coerce scalars / arrays / tensors to :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        slicer: list[slice] = [slice(None)] * grad.ndim
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)
