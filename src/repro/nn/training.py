"""Hand-derived MSCN training: forward, backward and Adam without a graph.

:class:`TrainingSession` runs one optimization step of an
:class:`~repro.core.mscn.MSCN` as a fixed sequence of numpy calls and
updates the model's parameter arrays in place:

* **forward** — each set MLP runs on the minibatch's real rows only:
  its queries' rows are gathered from the packed dataset
  (:class:`~repro.core.featurization.PackedSet`) into one ``(n, d)``
  operand, both layers run as 2-D GEMMs, and the outputs are scattered
  to padded slots for the masked mean.  The activations the backward
  needs stay in pooled buffers (:class:`~repro.pools.ArrayPool`);
* **backward**, written out by hand — the loss's closed-form gradient,
  the sigmoid, the output MLP, the concat split, the masked mean
  (broadcast times mask over count) and the ReLUs; every weight
  gradient is one 2-D GEMM over the packed rows;
* **Adam** (Kingma & Ba, 2015), updated in place.

The arithmetic follows the autograd reference kept under
``tests/nn/oracle/`` op for op: the losses' tie and edge rules (the
q-error's ``maximum`` gives a tie's gradient to ``exp(gap)``; the clamp
to ``[0, 1]`` passes the gradient on its closed interval), the masked
mean's multiply by ``1 / count``, and Adam's operation order.  Only the
GEMM shapes differ — packed 2-D instead of padded 3-D — which moves
results by a few ULPs; ``tests/nn/test_training_session.py`` holds every
gradient to 1e-12 relative of the oracle's.

The masked mean pads each set to the dataset's widest
(:attr:`PackedSet.width`), the layout of the padded batches
:func:`~repro.core.batches.collate` builds, so its sums add the same
terms in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import TrainingError
from ..pools import ArrayPool
from .inference import stable_sigmoid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.batches import TrainingSet
    from ..core.featurization import PackedSet
    from ..core.mscn import MSCN

#: The objectives :class:`TrainingSession` differentiates.
LOSSES = ("qerror", "mse")
#: Adam's moment decay rates and denominator guard (PyTorch's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
#: The set modules: MLP name, then the training set's attribute.
SETS = (("table", "tables"), ("join", "joins"), ("predicate", "predicates"))


class _Packed:
    """One set module's forward state, kept for its backward."""

    __slots__ = ("query_of", "scale", "x", "h1", "h2")

    def __init__(self, query_of, scale, x, h1, h2):
        self.query_of = query_of  # (n,) batch row of each packed row
        self.scale = scale        # (B, 1) 1 / max(count, 1)
        self.x, self.h1, self.h2 = x, h1, h2


class TrainingSession:
    """Steps an MSCN's parameters in place with a hand-derived gradient.

    ``loss`` is ``"qerror"`` (the mean q-error of denormalized
    cardinalities; ``log_max_card`` is the label-normalization constant,
    :attr:`~repro.core.featurization.Featurizer.log_label_span`) or
    ``"mse"`` on normalized labels.  One session belongs to one thread.
    """

    def __init__(
        self, model: "MSCN", *, loss: str, log_max_card: float, learning_rate: float
    ):
        if loss not in LOSSES:
            raise TrainingError(f"unknown loss {loss!r}")
        if loss == "qerror" and log_max_card <= 0:
            raise TrainingError(f"log_max_card must be positive, got {log_max_card}")
        if learning_rate <= 0:
            raise TrainingError(f"learning rate must be positive, got {learning_rate}")
        self.model = model
        self.loss = loss
        self.log_max_card = float(log_max_card)
        self.learning_rate = float(learning_rate)
        # Adam runs on flat vectors: the gradients are views of one, so
        # a step is a handful of whole-model ufuncs, not one set per array.
        size = sum(p.size for p in model.params.values())
        self._flat = {key: np.zeros(size) for key in ("grad", "m", "v", "a", "b")}
        self._grads: dict[str, np.ndarray] = {}
        self._updates: list[np.ndarray] = []
        offset = 0
        for name, param in model.params.items():
            span = slice(offset, offset + param.size)
            self._grads[name] = self._flat["grad"][span].reshape(param.shape)
            self._updates.append(self._flat["b"][span].reshape(param.shape))
            offset += param.size
        self._steps = 0
        self._pool = ArrayPool(zeroed=False)

    # ------------------------------------------------------------------
    # pooled buffers
    # ------------------------------------------------------------------
    def _buffer(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        return self._pool.array(shape, np.float64, tag=tag)

    def _rows(self, tag: str, n: int, width: int) -> np.ndarray:
        """The first ``n`` rows of a pooled buffer.

        The packed row count changes with every batch; rounding the
        buffer up to a power of two keeps the pool at a few shapes.
        """
        capacity = 1 << max(n - 1, 0).bit_length()
        return self._buffer(tag, (capacity, width))[:n]

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _set_forward(
        self, name: str, packed: "PackedSet", out: np.ndarray, index: np.ndarray
    ) -> _Packed:
        """Set MLP ``name`` on the real rows of queries ``index``; their
        masked mean into ``out``."""
        w1, b1, w2, b2 = self.model.mlp(name)
        dim = packed.rows.shape[1]
        hidden = w1.shape[1]
        batch_size, set_size = index.size, packed.width
        starts = packed.offsets[index]
        counts = packed.offsets[index + 1] - starts
        # Packed rows, in minibatch order; query i's element s pads to
        # slot i*S + s.
        query_of = np.repeat(np.arange(batch_size), counts)
        within = np.arange(query_of.size) - np.repeat(np.cumsum(counts) - counts, counts)
        xp = self._rows(name + ".x", query_of.size, dim)
        # mode="clip": the rows are in range, and "raise" buffers ``out``.
        np.take(packed.rows, starts[query_of] + within, axis=0, out=xp, mode="clip")
        h1 = self._rows(name + ".h1", query_of.size, hidden)
        np.dot(xp, w1, out=h1)
        h1 += b1
        np.maximum(h1, 0.0, out=h1)
        h2 = self._rows(name + ".h2", query_of.size, hidden)
        np.dot(h1, w2, out=h2)
        h2 += b2
        np.maximum(h2, 0.0, out=h2)
        # Masked mean: the rows in their padded slots (zeros elsewhere),
        # summed per set, times 1 / max(count, 1).
        padded = self._buffer(name + ".padded", (batch_size * set_size, hidden))
        padded.fill(0.0)
        padded[query_of * set_size + within] = h2
        np.sum(padded.reshape(batch_size, set_size, hidden), axis=1, out=out)
        scale = 1.0 / np.maximum(counts, 1.0).reshape(-1, 1)
        out *= scale
        return _Packed(query_of, scale, xp, h1, h2)

    def _forward(self, dataset: "TrainingSet", index: np.ndarray):
        """Predictions (B, 1) plus everything the backward reads."""
        batch_size = index.size
        h = self.model.hidden_units
        combined = self._buffer("combined", (batch_size, 3 * h))
        packed = [
            self._set_forward(
                name, getattr(dataset, attr), combined[:, k * h:(k + 1) * h], index
            )
            for k, (name, attr) in enumerate(SETS)
        ]
        w1, b1, w2, b2 = self.model.mlp("out")
        o1 = self._buffer("out.h1", (batch_size, h))
        np.dot(combined, w1, out=o1)
        o1 += b1
        np.maximum(o1, 0.0, out=o1)
        o2 = self._buffer("out.h2", (batch_size, 1))
        np.dot(o1, w2, out=o2)
        o2 += b2
        return stable_sigmoid(o2), combined, packed, o1

    def predict(self, dataset: "TrainingSet", index: np.ndarray) -> np.ndarray:
        """Normalized log-cardinality predictions for rows ``index`` of
        ``dataset``, shape (B,), fresh array."""
        return self._forward(dataset, index)[0].reshape(-1)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def _loss_gradient(self, preds: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """The batch loss and its gradient w.r.t. ``preds`` (B,)."""
        labels = np.asarray(labels, dtype=np.float64)
        if preds.shape != labels.shape:
            raise TrainingError(
                f"prediction shape {preds.shape} != target shape {labels.shape}"
            )
        share = 1.0 / preds.size
        if self.loss == "mse":
            diff = preds - labels
            grad = share * diff
            return float((diff * diff).sum() * share), grad + grad
        # q = max(exp(gap), exp(-gap)) on predictions clamped into [0, 1].
        gap = (np.clip(preds, 0.0, 1.0) - labels) * self.log_max_card
        over = np.exp(np.clip(gap, -700, 700))
        under = np.exp(np.clip(-gap, -700, 700))
        loss = float(np.maximum(over, under).sum() * share)
        # A tie (gap == 0) sends the gradient through exp(gap).
        grad = np.where(over >= under, share * over, -(share * under))
        grad *= self.log_max_card
        grad *= (preds >= 0.0) & (preds <= 1.0)
        return loss, grad

    def _set_backward(self, name: str, grad_mean: np.ndarray, state: _Packed) -> None:
        """Back through the masked mean and set MLP ``name``."""
        _, _, w2, _ = self.model.mlp(name)
        grads = self._grads
        # Each valid row gets its set's mean gradient times 1 / count.
        grad_h2 = self._rows(name + ".g2", state.query_of.size, w2.shape[1])
        np.take(
            grad_mean * state.scale, state.query_of, axis=0, out=grad_h2, mode="clip"
        )
        grad_h2 *= state.h2 > 0.0
        np.sum(grad_h2, axis=0, out=grads[f"{name}_mlp.2.bias"])
        np.dot(state.h1.T, grad_h2, out=grads[f"{name}_mlp.2.weight"])
        grad_h1 = self._rows(name + ".g1", state.query_of.size, w2.shape[0])
        np.dot(grad_h2, w2.T, out=grad_h1)
        grad_h1 *= state.h1 > 0.0
        np.sum(grad_h1, axis=0, out=grads[f"{name}_mlp.0.bias"])
        np.dot(state.x.T, grad_h1, out=grads[f"{name}_mlp.0.weight"])

    def gradients(
        self, dataset: "TrainingSet", labels: np.ndarray, index: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """The minibatch loss and every parameter's gradient, keyed like
        :meth:`~repro.core.mscn.MSCN.state_dict`.

        The minibatch is queries ``index`` of ``dataset`` (anything with
        packed ``tables``, ``joins`` and ``predicates`` sets, such as a
        :class:`~repro.core.batches.TrainingSet`), whose rows are
        gathered straight into the GEMM operands.  The gradient arrays
        are the session's own, overwritten by the next call.
        """
        sigmoid, combined, packed, o1 = self._forward(dataset, index)
        loss, grad_pred = self._loss_gradient(sigmoid.reshape(-1), labels)
        grads = self._grads
        batch_size, h = o1.shape
        w1, _, w2, _ = self.model.mlp("out")
        grad_o2 = grad_pred.reshape(-1, 1) * sigmoid * (1.0 - sigmoid)
        np.sum(grad_o2, axis=0, out=grads["out_mlp.2.bias"])
        np.dot(o1.T, grad_o2, out=grads["out_mlp.2.weight"])
        grad_o1 = self._buffer("out.g1", (batch_size, h))
        np.dot(grad_o2, w2.T, out=grad_o1)
        grad_o1 *= o1 > 0.0
        np.sum(grad_o1, axis=0, out=grads["out_mlp.0.bias"])
        np.dot(combined.T, grad_o1, out=grads["out_mlp.0.weight"])
        grad_combined = self._buffer("out.gc", (batch_size, 3 * h))
        np.dot(grad_o1, w1.T, out=grad_combined)
        for k, (name, _) in enumerate(SETS):
            self._set_backward(name, grad_combined[:, k * h:(k + 1) * h], packed[k])
        return loss, grads

    # ------------------------------------------------------------------
    # the optimizer step
    # ------------------------------------------------------------------
    def step(self, dataset: "TrainingSet", labels: np.ndarray, index: np.ndarray) -> float:
        """One Adam step on a minibatch (as in :meth:`gradients`);
        returns its loss."""
        loss, _ = self.gradients(dataset, labels, index)
        self._steps += 1
        bias1 = 1.0 - BETA1**self._steps
        bias2 = 1.0 - BETA2**self._steps
        grad, m, v, a, b = (self._flat[key] for key in ("grad", "m", "v", "a", "b"))
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        np.multiply(grad, 1.0 - BETA1, out=a)
        m *= BETA1
        m += a
        np.multiply(grad, grad, out=a)
        a *= 1.0 - BETA2
        v *= BETA2
        v += a
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, bias2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, bias1, out=b)
        b *= self.learning_rate
        b /= a
        for param, update in zip(self.model.params.values(), self._updates):
            param -= update
        return loss


__all__ = ["LOSSES", "TrainingSession"]
