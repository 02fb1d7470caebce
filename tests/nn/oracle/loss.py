"""Training objectives.

The paper trains MSCN "with the objective of minimizing the mean q-error".
Labels are normalized as ``y = log(card) / log(max_card)``, so the model's
sigmoid output ``p`` corresponds to the cardinality ``exp(p * log_max)``.
The q-error of the denormalized prediction is then

    q = max(est/true, true/est) = exp(|p - y| * log_max),

which is differentiable almost everywhere; :class:`QErrorLoss` minimizes
its batch mean exactly as the reference PyTorch code does.  An MSE option
on normalized labels is provided for ablation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from .tensor import Tensor, maximum


class Loss:
    """Base class: callable mapping (predictions, targets) -> scalar tensor."""

    def __call__(self, predictions: Tensor, targets: np.ndarray) -> Tensor:
        raise NotImplementedError


class MSELoss(Loss):
    """Mean squared error on normalized labels."""

    def __call__(self, predictions: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ReproError(
                f"prediction shape {predictions.shape} != target shape {targets.shape}"
            )
        diff = predictions - Tensor(targets)
        return (diff * diff).mean()


class QErrorLoss(Loss):
    """Mean q-error of denormalized cardinalities.

    ``log_max_card`` is the label-normalization constant (natural log of
    the maximum training cardinality).  Predictions and targets live in
    normalized [0, 1] space; the loss exponentiates their gap back to a
    cardinality ratio.  Predictions are clamped into [min_norm, 1] first,
    mirroring the reference implementation's clamp that prevents the exp
    from overflowing early in training.
    """

    def __init__(self, log_max_card: float, min_norm: float = 0.0):
        if log_max_card <= 0:
            raise ReproError(f"log_max_card must be positive, got {log_max_card}")
        self.log_max_card = float(log_max_card)
        self.min_norm = float(min_norm)

    def __call__(self, predictions: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ReproError(
                f"prediction shape {predictions.shape} != target shape {targets.shape}"
            )
        preds = predictions.clip(self.min_norm, 1.0)
        gap = (preds - Tensor(targets)) * self.log_max_card
        # q = max(exp(gap), exp(-gap)) = exp(|gap|); using the max form keeps
        # the gradient expression identical to the reference implementation.
        q = maximum(gap.exp(), (-gap).exp())
        return q.mean()
