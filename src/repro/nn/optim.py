"""Optimisers and learning-rate schedules.

Adam is the default for the paper's experiments; SGD with momentum is
provided for the from-scratch baseline of Fig. 12 and for ablations.

Both optimisers update parameters **in place** through per-parameter
scratch buffers, so a training step allocates no per-step temporaries
once warm.  The arithmetic keeps the exact operation order (and
two-operand commutations, which are bitwise-neutral in IEEE-754) of the
original out-of-place formulation, so checkpoints and resumed runs stay
bit-identical with earlier revisions.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..obs import trace as _trace
from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "StepLR", "clip_grad_norm"]


class Optimizer:
    """Base class: holds parameter references and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _scratch(self, index: int, slot: int = 0) -> np.ndarray:
        """Lazily allocated per-parameter scratch buffer (``slot`` selects
        between independent buffers live at the same time)."""
        buffers = self.__dict__.setdefault("_scratch_buffers", {})
        key = (index, slot)
        buf = buffers.get(key)
        param = self.parameters[index]
        if buf is None or buf.shape != param.data.shape or buf.dtype != param.data.dtype:
            buf = np.empty_like(param.data)
            buffers[key] = buf
        return buf

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of the optimiser's mutable state (for checkpointing)."""
        return {"lr": np.asarray(self.lr, dtype=np.float64)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_dict`."""
        self.lr = float(state["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        with _trace.span("nn.optim.step"):
            for i, (param, velocity) in enumerate(zip(self.parameters, self._velocity)):
                if param.grad is None:
                    continue
                grad = param.grad
                if self.weight_decay:
                    scratch = self._scratch(i)
                    np.multiply(param.data, self.weight_decay, out=scratch)
                    scratch += grad  # == grad + wd * param (addition commutes)
                    grad = scratch
                if self.momentum:
                    velocity *= self.momentum
                    velocity += grad
                    update = velocity
                else:
                    update = grad
                step_buf = self._scratch(i, slot=1)
                np.multiply(update, self.lr, out=step_buf)
                param.data -= step_buf

    def state_dict(self) -> dict[str, np.ndarray]:
        """Learning rate plus per-parameter momentum buffers."""
        state = super().state_dict()
        for i, velocity in enumerate(self._velocity):
            state[f"velocity.{i}"] = velocity.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_dict` (strict on buffer count)."""
        super().load_state_dict(state)
        for i in range(len(self._velocity)):
            self._velocity[i] = np.array(state[f"velocity.{i}"], copy=True)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        with _trace.span("nn.optim.step"):
            self._t += 1
            bias1 = 1.0 - self.beta1**self._t
            bias2 = 1.0 - self.beta2**self._t
            for i, (param, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
                if param.grad is None:
                    continue
                grad = param.grad
                if self.weight_decay:
                    decayed = self._scratch(i)
                    np.multiply(param.data, self.weight_decay, out=decayed)
                    decayed += grad  # == grad + wd * param (addition commutes)
                    grad = decayed
                work = self._scratch(i, slot=1)
                m *= self.beta1
                np.multiply(grad, 1.0 - self.beta1, out=work)
                m += work
                v *= self.beta2
                np.multiply(grad, 1.0 - self.beta2, out=work)
                work *= grad  # == ((1 - beta2) * grad) * grad, original order
                v += work
                # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
                denom = self._scratch(i, slot=2)
                np.divide(v, bias2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                np.divide(m, bias1, out=work)
                work *= self.lr
                work /= denom
                param.data -= work

    def state_dict(self) -> dict[str, np.ndarray]:
        """Learning rate, step counter and per-parameter moment buffers."""
        state = super().state_dict()
        state["t"] = np.asarray(self._t, dtype=np.int64)
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_dict` (strict on buffer count)."""
        super().load_state_dict(state)
        self._t = int(state["t"])
        for i in range(len(self._m)):
            self._m[i] = np.array(state[f"m.{i}"], copy=True)
            self._v[i] = np.array(state[f"v.{i}"], copy=True)


class StepLR:
    """Multiply the optimiser learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Rescale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total
