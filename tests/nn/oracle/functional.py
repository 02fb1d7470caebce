"""Functional ops used by the MSCN model.

The key primitive is :func:`masked_mean`: MSCN batches pad every query's
table/join/predicate sets to the batch maximum and carry a validity mask;
set-module outputs must be averaged over *valid* elements only.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from .tensor import Tensor, concat, maximum


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Average ``x`` of shape (B, S, D) over axis 1 using ``mask`` (B, S).

    Rows whose mask is entirely zero (a query with no joins, say) yield a
    zero vector, matching the reference implementation's behaviour of
    dividing by ``max(count, 1)`` — an empty set contributes nothing.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if x.ndim != 3:
        raise ReproError(f"masked_mean expects (B, S, D), got shape {x.shape}")
    if mask.shape != x.shape[:2]:
        raise ReproError(
            f"mask shape {mask.shape} does not match set dims {x.shape[:2]}"
        )
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)  # (B, 1)
    weighted = x * Tensor(mask[:, :, None])
    return weighted.sum(axis=1) * Tensor(1.0 / counts)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


__all__ = ["masked_mean", "relu", "sigmoid", "concat", "maximum"]
