"""The multi-set convolutional network (MSCN).

"While the Deep Sets model only addresses single sets, our model —
called multi-set convolutional network (MSCN) — represents three sets
(tables, joins, and predicates) and can capture correlations between
sets.  On a high level ... for each set, it has a separate module,
comprised of one fully-connected multi-layer perceptron (MLP) per set
element with shared parameters.  We average module outputs, concatenate
them, and feed them into a final output MLP, which captures correlations
between sets and outputs a cardinality estimate."  (paper, Section 2)

Architecture (matching the reference implementation):

    table set  (B,S_t,d_t) --MLP-> (B,S_t,h) --masked avg-> (B,h) \
    join set   (B,S_j,d_j) --MLP-> (B,S_j,h) --masked avg-> (B,h)  +-concat->
    pred set   (B,S_p,d_p) --MLP-> (B,S_p,h) --masked avg-> (B,h) /
                               (B,3h) --MLP-> (B,h) --Linear+sigmoid-> (B,)

Every MLP is two layers with ReLU; the output passes through a sigmoid,
so predictions live in (0, 1) like the normalized log labels.

:class:`MSCN` holds the parameter arrays only.  Two sessions run them:
:class:`~repro.nn.training.TrainingSession` (forward, hand-derived
backward and Adam, updating the arrays in place) and
:class:`~repro.nn.inference.InferenceSession` (a compiled snapshot for
serving).
"""

from __future__ import annotations

import numpy as np

from ..errors import SerializationError, TrainingError
from ..nn.inference import LAYER_KEYS, MLP_NAMES, InferenceSession
from ..nn.init import kaiming_uniform
from ..rng import SeedLike, make_rng


class MSCN:
    """The three-set MSCN cardinality model: dims plus parameter arrays."""

    def __init__(
        self,
        table_dim: int,
        join_dim: int,
        predicate_dim: int,
        hidden_units: int = 64,
        seed: SeedLike = None,
    ):
        if hidden_units <= 0:
            raise TrainingError(f"hidden_units must be positive, got {hidden_units}")
        rng = make_rng(seed)
        self.table_dim = table_dim
        self.join_dim = join_dim
        self.predicate_dim = predicate_dim
        self.hidden_units = hidden_units
        h = hidden_units
        #: Dotted name -> float64 array.  Training updates these arrays in
        #: place; :meth:`load_state_dict` copies into them.
        self.params: dict[str, np.ndarray] = {}
        for name, dims in zip(
            MLP_NAMES,
            ((table_dim, h, h), (join_dim, h, h), (predicate_dim, h, h), (3 * h, h, 1)),
        ):
            for layer, fan_in, fan_out in zip("02", dims, dims[1:]):
                weight, bias = kaiming_uniform(fan_in, fan_out, rng)
                self.params[f"{name}_mlp.{layer}.weight"] = weight
                self.params[f"{name}_mlp.{layer}.bias"] = bias

    def mlp(self, name: str) -> tuple[np.ndarray, ...]:
        """``(w1, b1, w2, b2)`` of one of
        :data:`~repro.nn.inference.MLP_NAMES` (live arrays)."""
        return tuple(self.params[f"{name}_mlp.{key}"] for key in LAYER_KEYS)

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for footprint accounting)."""
        return sum(p.size for p in self.params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of dotted parameter names to array copies."""
        return {name: p.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy arrays produced by :meth:`state_dict` into the parameters.

        Every parameter must be present with a matching shape; extra keys
        are rejected so silent architecture mismatches cannot slip through.
        """
        missing = sorted(set(self.params) - set(state))
        extra = sorted(set(state) - set(self.params))
        if missing or extra:
            raise SerializationError(
                f"state dict mismatch: missing={missing}, unexpected={extra}"
            )
        for name, param in self.params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise SerializationError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            param[...] = value

    def compile(self, dtype="float64"):
        """Snapshot the current weights into a compiled inference session.

        The session (:class:`~repro.nn.inference.InferenceSession`) runs
        the forward as a flat sequence of in-place numpy calls against
        pooled buffers, with no per-call allocation on repeated batch
        shapes.  It does not track later weight updates; recompile after
        training.
        """
        return InferenceSession(self, dtype=dtype)

    def architecture(self) -> dict:
        """JSON-able architecture description for serialization."""
        return {
            "table_dim": self.table_dim,
            "join_dim": self.join_dim,
            "predicate_dim": self.predicate_dim,
            "hidden_units": self.hidden_units,
        }

    @classmethod
    def from_architecture(cls, arch: dict, seed: SeedLike = 0) -> "MSCN":
        try:
            return cls(
                table_dim=int(arch["table_dim"]),
                join_dim=int(arch["join_dim"]),
                predicate_dim=int(arch["predicate_dim"]),
                hidden_units=int(arch["hidden_units"]),
                seed=seed,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrainingError(f"malformed MSCN architecture: {exc}") from exc
