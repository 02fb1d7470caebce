"""The MSCN forward and training step on the autograd graph.

:class:`OracleMSCN` is the model as an autograd :class:`Module` — the
same layers, initialization draws and state-dict keys as
:class:`repro.core.mscn.MSCN` — and :class:`OracleTrainingSession`
steps it with the graph's losses and :class:`Adam` behind
:class:`repro.nn.training.TrainingSession`'s interface, so a build can
be trained either way.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.core.batches import Batch, TrainingSet
from repro.core.featurization import PackedSet
from repro.db.batch import offsets_of
from repro.core.mscn import MSCN
from repro.rng import SeedLike, make_rng
from .functional import masked_mean
from .layers import Linear, ReLU, Sequential
from .loss import MSELoss, QErrorLoss
from .module import Module
from .optim import Adam
from .tensor import Tensor, concat


class OracleMSCN(Module):
    """The three-set MSCN on autograd layers."""

    def __init__(
        self,
        table_dim: int,
        join_dim: int,
        predicate_dim: int,
        hidden_units: int = 64,
        seed: SeedLike = None,
    ):
        super().__init__()
        rng = make_rng(seed)

        def set_module(in_dim: int) -> Sequential:
            return Sequential(
                Linear(in_dim, hidden_units, rng=rng),
                ReLU(),
                Linear(hidden_units, hidden_units, rng=rng),
                ReLU(),
            )

        self.table_mlp = self.register_module("table_mlp", set_module(table_dim))
        self.join_mlp = self.register_module("join_mlp", set_module(join_dim))
        self.predicate_mlp = self.register_module(
            "predicate_mlp", set_module(predicate_dim)
        )
        self.out_mlp = self.register_module(
            "out_mlp",
            Sequential(
                Linear(3 * hidden_units, hidden_units, rng=rng),
                ReLU(),
                Linear(hidden_units, 1, rng=rng),
            ),
        )

    @classmethod
    def of(cls, model: MSCN) -> "OracleMSCN":
        """An oracle holding a copy of ``model``'s weights."""
        oracle = cls(
            model.table_dim, model.join_dim, model.predicate_dim,
            hidden_units=model.hidden_units, seed=0,
        )
        oracle.load_state_dict(model.state_dict())
        return oracle

    def forward(self, batch: Batch) -> Tensor:
        """Normalized log-cardinality predictions, shape (B,)."""
        table_repr = masked_mean(
            self.table_mlp(Tensor(batch.tables)), batch.table_mask
        )
        join_repr = masked_mean(self.join_mlp(Tensor(batch.joins)), batch.join_mask)
        pred_repr = masked_mean(
            self.predicate_mlp(Tensor(batch.predicates)), batch.predicate_mask
        )
        combined = concat([table_repr, join_repr, pred_repr], axis=1)
        out = self.out_mlp(combined).sigmoid()
        return out.reshape(out.shape[0])


def oracle_forward(model: MSCN, batch: Batch) -> np.ndarray:
    """``model``'s predictions on ``batch`` through the autograd graph."""
    return OracleMSCN.of(model)(batch).numpy()


SETS = (("tables", "table_mask"), ("joins", "join_mask"), ("predicates", "predicate_mask"))


def rows(dataset, index: np.ndarray) -> Batch:
    """Queries ``index`` of ``dataset`` as one padded batch.

    ``dataset`` is a padded :class:`Batch`, or a packed training set
    (``tables``, ``joins``, ``predicates`` :class:`PackedSet` s), whose
    sets are padded to their width here (at least one masked slot).
    """
    if isinstance(dataset, Batch):
        return Batch(*(getattr(dataset, f.name)[index] for f in fields(Batch)))
    arrays = []
    for name, _ in SETS:
        packed = getattr(dataset, name)
        data = np.zeros((index.size, max(packed.width, 1), packed.rows.shape[1]))
        mask = np.zeros(data.shape[:2])
        for i, q in enumerate(index):
            real = packed.rows[packed.offsets[q] : packed.offsets[q + 1]]
            data[i, : len(real)] = real
            mask[i, : len(real)] = 1.0
        arrays += [data, mask]
    return Batch(*arrays)


def packed(batch: Batch) -> TrainingSet:
    """The real rows of a padded ``batch`` as a packed training set
    (labels zero; the training session takes them separately)."""
    sets = []
    for name, mask_name in SETS:
        mask = getattr(batch, mask_name).astype(bool)
        sets.append(PackedSet(getattr(batch, name)[mask], offsets_of(mask.sum(axis=1))))
    return TrainingSet(*sets, np.zeros(batch.size))


class OracleTrainingSession:
    """:class:`~repro.nn.training.TrainingSession`'s interface on the graph.

    Steps an :class:`OracleMSCN` copy of ``model`` and writes the new
    weights back into ``model`` after every step.
    """

    def __init__(
        self, model: MSCN, *, loss: str, log_max_card: float, learning_rate: float
    ):
        self.model = model
        self.net = OracleMSCN.of(model)
        self.loss_fn = QErrorLoss(log_max_card) if loss == "qerror" else MSELoss()
        self.optimizer = Adam(self.net.parameters(), lr=learning_rate)

    def predict(self, dataset: Batch, index: np.ndarray) -> np.ndarray:
        return self.net(rows(dataset, index)).numpy()

    def gradients(
        self, dataset: Batch, labels: np.ndarray, index: np.ndarray
    ) -> tuple[float, dict]:
        self.optimizer.zero_grad()
        loss = self.loss_fn(self.net(rows(dataset, index)), labels)
        loss.backward()
        return loss.item(), {name: p.grad for name, p in self.net.named_parameters()}

    def step(self, dataset: Batch, labels: np.ndarray, index: np.ndarray) -> float:
        loss, _ = self.gradients(dataset, labels, index)
        self.optimizer.step()
        self.model.load_state_dict(self.net.state_dict())
        return loss
