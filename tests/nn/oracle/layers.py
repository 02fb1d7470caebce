"""Neural-network layers built on the autodiff engine (the test oracle)."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.nn.init import kaiming_uniform
from repro.rng import SeedLike, make_rng
from .module import Module
from .tensor import Tensor


class Linear(Module):
    """Affine map ``y = x @ W + b``.

    Accepts inputs of shape ``(B, in_features)`` or, for set modules,
    ``(B, S, in_features)``; the matmul broadcasts over leading axes.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: SeedLike = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ReproError(
                f"Linear dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        weight, bias = kaiming_uniform(in_features, out_features, rng)
        self.weight = self.register_parameter("weight", weight)
        self.bias = self.register_parameter("bias", bias)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ReproError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        return x @ self.weight + self.bias

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Sigmoid(Module):
    """Logistic activation; the MSCN output head uses this."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Dropout(Module):
    """Inverted dropout: active only in training mode.

    A fresh mask is drawn from the module's own generator each forward
    pass, so training remains reproducible given the construction seed.
    """

    def __init__(self, p: float = 0.5, rng: SeedLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ReproError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = make_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        if not modules:
            raise ReproError("Sequential requires at least one module")
        self.layers = list(modules)
        for i, module in enumerate(modules):
            self.register_module(str(i), module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.layers)
        return f"Sequential({inner})"


def mlp(
    dims: list[int],
    rng: SeedLike = None,
    activation: type[Module] = ReLU,
    final_activation: type[Module] | None = None,
    dropout: float = 0.0,
) -> Sequential:
    """Build a multi-layer perceptron from a dimension list.

    ``mlp([d_in, d_hid, d_out])`` produces
    ``Linear -> act -> (Dropout) -> Linear (-> final_act)``, matching the
    two-layer set modules and output network of the MSCN paper.
    """
    if len(dims) < 2:
        raise ReproError("mlp() needs at least input and output dimensions")
    gen = make_rng(rng)
    layers: list[Module] = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        layers.append(Linear(d_in, d_out, rng=gen))
        is_last = i == len(dims) - 2
        if not is_last:
            layers.append(activation())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=gen))
    if final_activation is not None:
        layers.append(final_activation())
    return Sequential(*layers)
