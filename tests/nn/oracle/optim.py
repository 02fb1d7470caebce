"""First-order optimizers.

The reference MSCN training uses Adam with PyTorch defaults
(lr=1e-3, betas=(0.9, 0.999), eps=1e-8); plain SGD with momentum is
included for ablations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from .tensor import Tensor


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: list[Tensor]):
        params = list(params)
        if not params:
            raise ReproError("optimizer requires at least one parameter")
        for p in params:
            if not p.requires_grad:
                raise ReproError("optimizer given a parameter without requires_grad")
        self.params = params

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: list[Tensor], lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ReproError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ReproError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0.0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        if lr <= 0:
            raise ReproError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ReproError(f"betas must be in [0, 1), got {betas}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
