"""Neural-network layers used by the paper's models (Figs. 6-7).

All layers are thin stateful wrappers over :mod:`repro.nn.functional` and
:mod:`repro.nn.ops`, holding :class:`~repro.nn.module.Parameter` weights.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .ops import avg_pool2d, conv2d, max_pool2d
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "PReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Dropout",
    "Identity",
]


class Linear(Module):
    """Affine map ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.he_normal((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # At inference Tensor.matmul computes each row on its own, so the
        # output of a row never depends on the batch it arrived in.
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2-D convolution with square kernels (paper uses 5x5)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.he_normal(shape, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class MaxPool2d(Module):
    """Max pooling (the paper's key locality device, Section 4)."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling, for the pooling ablation."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride)


class _BatchNorm(Module):
    """Shared implementation of 1-D / 2-D batch normalisation [5]."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _axes_and_shape(self, x: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
        raise NotImplementedError

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(scale, shift)`` of the inference-time affine map.

        ``scale = gamma / sqrt(var + eps)`` and ``shift = beta - mean *
        scale``, from the running statistics: at inference the layer is
        ``x * scale + shift``.
        """
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        return scale, self.beta.data - self.running_mean * scale

    def forward(self, x: Tensor) -> Tensor:
        axes, shape = self._axes_and_shape(x)
        if not self.training and not (
            is_grad_enabled() and (self.gamma.requires_grad or self.beta.requires_grad)
        ):
            # Inference fast path: fold the whole affine normalisation
            # into one per-channel multiply-add (no graph, 1 temporary).
            scale, shift = self.folded()
            out = x.data * scale.reshape(shape)
            out += shift.reshape(shape)
            return Tensor(out)
        if self.training:
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            count = x.data.size // self.num_features
            unbiased = var * (count / max(count - 1, 1))
            self._update_buffer(
                "running_mean",
                ((1 - self.momentum) * self.running_mean + self.momentum * mean).astype(
                    np.float32
                ),
            )
            self._update_buffer(
                "running_var",
                ((1 - self.momentum) * self.running_var + self.momentum * unbiased).astype(
                    np.float32
                ),
            )
        else:
            mean = self.running_mean
            var = self.running_var
        mean_t = Tensor(mean.reshape(shape))
        std_t = Tensor(np.sqrt(var + self.eps).reshape(shape))
        normalised = (x - mean_t) / std_t
        return normalised * self.gamma.reshape(*shape) + self.beta.reshape(*shape)


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over (N, C) inputs."""

    def _axes_and_shape(self, x: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C), got {x.shape}")
        return (0,), (1, self.num_features)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over (N, C, H, W) inputs."""

    def _axes_and_shape(self, x: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got {x.shape}")
        return (0, 2, 3), (1, self.num_features, 1, 1)


class PReLU(Module):
    """Parametric ReLU with a learnable per-channel (or shared) slope."""

    def __init__(self, num_parameters: int = 1, initial_slope: float = 0.25) -> None:
        super().__init__()
        self.alpha = Parameter(np.full(num_parameters, initial_slope, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.prelu(x, self.alpha)


class ReLU(Module):
    """Plain ReLU activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    """Flatten trailing dimensions, keeping the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Dropout(Module):
    """Inverted dropout (active only in training mode)."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)


class Identity(Module):
    """No-op layer, handy for ablations."""

    def forward(self, x: Tensor) -> Tensor:
        return x
