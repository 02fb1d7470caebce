"""Compiled MSCN inference.

Serving runs the forward only, so it needs none of what training
keeps: no stored activations, no gradients, no optimizer state.
:class:`InferenceSession` is that forward alone.  (Training runs
through :class:`~repro.nn.training.TrainingSession`, which keeps its
activations for a hand-derived backward.)

A session is *compiled* once from a trained :class:`~repro.core.mscn.MSCN`:

* the weights are snapshotted as contiguous arrays at a fixed dtype
  (float64 by default; float32 opt-in halves the GEMM cost at a
  documented ~1e-7 relative error — see ``docs/performance.md``);
* the forward pass is a flat, fixed sequence of in-place numpy calls —
  ``np.dot(..., out=...)`` for every matmul, fused ReLU via
  ``np.maximum(..., out=...)``, and a mask-multiply / sum / scale
  masked mean;
* every intermediate lives in a per-shape buffer pool, so repeated
  calls with the same batch shape perform **zero** allocations beyond
  the tiny ``(B,)`` output (which is always a fresh array the caller
  may keep).

Buffer pools are thread-local: concurrent callers (e.g. a user thread
estimating while the async server's flush thread answers a batch) each
get their own scratch space and share only the read-only weight
snapshot, so the session is safe to use from any number of threads.

Because the weights are snapshotted, a session goes stale when its
model is retrained or mutated in place; :meth:`DeepSketch.clear_cache`
drops the sketch's session alongside its result cache so the next
estimate recompiles from the current weights.

A session can also be built straight over named weight arrays
(:meth:`InferenceSession.from_weights`) without copying them: that is
how a process-pool serving worker restores a sketch's replica from the
sketch payload, and how a shared-memory worker computes over read-only
views of the parent's segment (see ``repro.serve.executor``).

The numerical contract, against the autograd forward kept as the
oracle under ``tests/nn/oracle/``: a float64 session matches it to a
few ULPs (<= 1e-12 relative — 2-D GEMM vs batched matmul kernel
rounding); a float32 session matches to <= 1e-6 relative.  Both bounds,
and a trained sketch's estimates against the oracle path, are asserted
in ``tests/nn/test_inference.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ReproError
from ..pools import DEFAULT_MAX_SHAPES, ArrayPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.batches import Batch
    from ..core.mscn import MSCN

#: Buffer pools are cleared when they accumulate more distinct shapes
#: than this — a backstop against unbounded growth under adversarial
#: batch-shape churn, far above anything steady-state serving produces.
MAX_POOLED_SHAPES = DEFAULT_MAX_SHAPES

#: The four MLPs of an MSCN.
MLP_NAMES = ("table", "join", "predicate", "out")

#: Each MLP's parameters: its two linear layers sit at positions 0 and 2
#: of the reference ``Sequential(Linear, ReLU, Linear, ...)``, whose
#: names the state-dict keys (``table_mlp.0.weight`` ...) keep.
LAYER_KEYS = ("0.weight", "0.bias", "2.weight", "2.bias")


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw ndarray.

    The one sigmoid of every MSCN forward: this session's, the training
    session's and the test oracle's, so they stay arithmetically
    identical by construction.
    """
    clipped = np.clip(x, -60, 60)
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-clipped)),
        np.exp(clipped) / (1.0 + np.exp(clipped)),
    )


class _MLP:
    """Weight snapshot of one two-layer MLP: ``relu(x@W1+b1) @ W2 + b2``.

    The arrays are adopted verbatim — **no copy**.  The shared-memory
    snapshot path hands in read-only views over a mapped segment; the
    forward pass only ever uses weights as GEMM operands, so read-only
    is fine.  Callers own the aliasing consequences.
    """

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(
        self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray
    ):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2


class InferenceSession:
    """A compiled forward pass over a snapshot of an MSCN's weights.

    Construct once per trained model (cheap: four small weight copies)
    or over a payload's arrays (:meth:`from_weights`, no copy), then
    call :meth:`run` per batch.  See the module docstring for the
    execution model, threading contract, and numerical guarantees.
    """

    SUPPORTED_DTYPES = (np.float64, np.float32)

    def __init__(self, model: "MSCN", dtype=np.float64):
        # A copy even when a parameter is already contiguous at the
        # session dtype, or training's in-place updates would write
        # through into a "compiled" session.
        self._adopt(model.params, model.architecture(), dtype, np.array)

    @classmethod
    def from_weights(
        cls, weights: dict[str, np.ndarray], architecture: dict, dtype=np.float64
    ) -> "InferenceSession":
        """A session over ``weights`` that copies none already at ``dtype``.

        ``weights`` is keyed like :meth:`MSCN.state_dict
        <repro.core.mscn.MSCN.state_dict>` (``table_mlp.0.weight`` ...)
        and ``architecture`` is :meth:`MSCN.architecture
        <repro.core.mscn.MSCN.architecture>`'s dims.  This is how a
        process-pool worker compiles a session directly over a mapped
        shared-memory segment: the weight arrays stay wherever the
        caller put them (typically read-only views over ``/dev/shm``),
        and only the empty buffer pool is process-private.  A missing
        key or malformed architecture is a
        :class:`~repro.errors.ReproError`.
        """
        session = cls.__new__(cls)
        session._adopt(weights, architecture, dtype, np.asarray)
        return session

    def _adopt(self, weights, architecture, dtype, convert) -> None:
        dtype = np.dtype(dtype)
        if dtype not in [np.dtype(d) for d in self.SUPPORTED_DTYPES]:
            raise ReproError(
                f"InferenceSession supports float64/float32, got {dtype}"
            )
        self.dtype = dtype
        try:
            self.hidden_units = int(architecture["hidden_units"])
            self.table_dim = int(architecture["table_dim"])
            self.join_dim = int(architecture["join_dim"])
            self.predicate_dim = int(architecture["predicate_dim"])
            for name in MLP_NAMES:
                arrays = [
                    convert(weights[f"{name}_mlp.{key}"], dtype=dtype, order="C")
                    for key in LAYER_KEYS
                ]
                setattr(self, f"_{name}_mlp", _MLP(*arrays))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed session weights: {exc!r}") from exc
        self._pools = ArrayPool(zeroed=False, max_shapes=MAX_POOLED_SHAPES)

    # ------------------------------------------------------------------
    # buffer pool
    # ------------------------------------------------------------------
    def _pool(self) -> dict:
        """This thread's shape-keyed scratch buffers."""
        return self._pools.buffers()

    def _buffer(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized scratch array; reused across same-shape calls."""
        return self._pools.array(shape, self.dtype, tag=tag)

    def _as_input(self, tag: str, array: np.ndarray) -> np.ndarray:
        """``array`` at the session dtype, C-contiguous.

        When the batch already matches (the default float64 collation
        feeding a float64 session) this is a zero-copy passthrough; a
        dtype mismatch is converted into a pooled buffer, so even the
        float32 path allocates nothing on repeated shapes.
        """
        if array.dtype == self.dtype and array.flags.c_contiguous:
            return array
        buf = self._buffer(tag, array.shape)
        np.copyto(buf, array, casting="same_kind")
        return buf

    # ------------------------------------------------------------------
    # the compiled forward
    # ------------------------------------------------------------------
    def _set_module(
        self,
        tag: str,
        mlp: _MLP,
        x: np.ndarray,
        mask: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """One set MLP + masked mean, written into ``out`` (a (B, h) view).

        Every intermediate is pooled: the (B, S, d) input is viewed as a
        2-D (B*S, d) operand so both layers run as plain GEMMs.
        """
        batch_size, set_size, _ = x.shape
        x2d = self._as_input(tag + ".in", x).reshape(batch_size * set_size, -1)
        h1 = self._buffer(tag + ".h1", (x2d.shape[0], self.hidden_units))
        np.dot(x2d, mlp.w1, out=h1)
        h1 += mlp.b1
        np.maximum(h1, 0.0, out=h1)
        h2 = self._buffer(tag + ".h2", (x2d.shape[0], self.hidden_units))
        np.dot(h1, mlp.w2, out=h2)
        h2 += mlp.b2
        np.maximum(h2, 0.0, out=h2)
        # Masked mean: zero padded rows, sum the set axis, scale by the
        # real-element count (empty sets divide by 1, contributing zero).
        mask = self._as_input(tag + ".mask", np.asarray(mask))
        h2 *= mask.reshape(-1, 1)
        np.sum(h2.reshape(batch_size, set_size, self.hidden_units), axis=1, out=out)
        counts = self._buffer(tag + ".counts", (batch_size, 1))
        np.sum(mask.reshape(batch_size, set_size), axis=1, keepdims=True, out=counts)
        np.maximum(counts, 1.0, out=counts)
        out /= counts

    def run(self, batch: "Batch") -> np.ndarray:
        """Normalized log-cardinality predictions, float64, shape (B,).

        The returned array is freshly allocated (never a pooled buffer),
        so callers may hold it across subsequent ``run`` calls.
        """
        batch_size = batch.tables.shape[0]
        h = self.hidden_units
        combined = self._buffer("combined", (batch_size, 3 * h))
        self._set_module(
            "tables", self._table_mlp, batch.tables, batch.table_mask,
            combined[:, 0:h],
        )
        self._set_module(
            "joins", self._join_mlp, batch.joins, batch.join_mask,
            combined[:, h:2 * h],
        )
        self._set_module(
            "predicates", self._predicate_mlp, batch.predicates,
            batch.predicate_mask, combined[:, 2 * h:3 * h],
        )
        o1 = self._buffer("out.h1", (batch_size, h))
        np.dot(combined, self._out_mlp.w1, out=o1)
        o1 += self._out_mlp.b1
        np.maximum(o1, 0.0, out=o1)
        o2 = self._buffer("out.h2", (batch_size, 1))
        np.dot(o1, self._out_mlp.w2, out=o2)
        o2 += self._out_mlp.b2
        return stable_sigmoid(o2).reshape(batch_size).astype(np.float64)

    __call__ = run

    def __repr__(self) -> str:
        return (
            f"InferenceSession(dtype={self.dtype.name}, "
            f"dims=({self.table_dim}, {self.join_dim}, {self.predicate_dim}), "
            f"hidden={self.hidden_units})"
        )


__all__ = [
    "InferenceSession",
    "MAX_POOLED_SHAPES",
    "LAYER_KEYS",
    "MLP_NAMES",
    "stable_sigmoid",
]
