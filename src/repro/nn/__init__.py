"""A self-contained NumPy deep-learning framework.

The paper was implemented on a GPU deep-learning stack; this package
provides the equivalent substrate — reverse-mode autodiff, convolutional
and fully connected layers, batch normalisation, PReLU, highway layers,
losses and optimisers — in pure NumPy, so the reproduction has no
framework dependency.

Public API::

    from repro import nn
    from repro.nn import functional as F

    model = nn.Sequential(nn.Linear(10, 100), nn.ReLU(), nn.Linear(100, 1))
    loss = nn.MSELoss()(model(nn.Tensor(x)), y)
    loss.backward()
"""

from . import functional
from . import init
from .data import ArrayDataset, DataLoader, Dataset
from .highway import Highway
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    PReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from .losses import BCEWithLogitsLoss, CrossEntropyLoss, HuberLoss, L1Loss, MSELoss
from .module import Module, ModuleList, Parameter, Sequential
from .ops import (
    avg_pool2d,
    conv2d,
    max_pool2d,
    workspace_clear,
    workspace_stats,
    workspace_total_stats,
)
from .threads import (
    BLAS_ENV_VARS,
    blas_backend_info,
    blas_env_settings,
    blas_thread_plan,
    cpu_count,
    pinned_blas_env,
)
from .optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from .serialization import load_module, save_module
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    float64_preserved,
    is_grad_enabled,
    no_grad,
    preserve_float64,
    stack,
)

__all__ = [
    "functional",
    "init",
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "preserve_float64",
    "float64_preserved",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
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
    "Highway",
    "MSELoss",
    "L1Loss",
    "HuberLoss",
    "BCEWithLogitsLoss",
    "CrossEntropyLoss",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "workspace_stats",
    "workspace_total_stats",
    "workspace_clear",
    "BLAS_ENV_VARS",
    "blas_backend_info",
    "blas_env_settings",
    "blas_thread_plan",
    "cpu_count",
    "pinned_blas_env",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "ArrayDataset",
    "DataLoader",
    "Dataset",
    "save_module",
    "load_module",
]
