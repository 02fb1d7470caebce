"""Module base class: a parameter registry with train/eval modes.

A :class:`Module` owns named parameters (leaf :class:`~.tensor.Tensor`
objects with ``requires_grad=True``) and possibly named child modules.
``parameters()`` walks the tree, ``state_dict()`` / ``load_state_dict()``
move raw arrays in and out for serialization.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ReproError, SerializationError
from .tensor import Tensor


class Module:
    """Base class for neural-network components."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, value: np.ndarray) -> Tensor:
        """Wrap ``value`` as a trainable tensor registered under ``name``."""
        if name in self._parameters or name in self._modules:
            raise ReproError(f"duplicate registration of {name!r}")
        param = Tensor(value, requires_grad=True, name=name)
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._parameters or name in self._modules:
            raise ReproError(f"duplicate registration of {name!r}")
        self._modules[name] = module
        return module

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for footprint accounting)."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # train / eval switching (affects Dropout)
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of dotted parameter names to array copies."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        Every parameter must be present with a matching shape; extra keys
        are rejected so silent architecture mismatches cannot slip through.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise SerializationError(
                f"state dict mismatch: missing={missing}, unexpected={extra}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise SerializationError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
