"""MSCN model tests: shapes, set semantics, gradients, serialization."""

import tracemalloc

import numpy as np
import pytest

from repro.core import MSCN, collate
from repro.core.batches import Batch
from repro.core.featurization import QueryFeatures
from repro.errors import TrainingError
from repro.nn import QErrorLoss


def features(n_tables=2, n_joins=1, n_preds=2, td=6, jd=4, pd=5, rng=None):
    rng = rng or np.random.default_rng(0)
    return QueryFeatures(
        tables=rng.random((n_tables, td)),
        joins=rng.random((n_joins, jd)),
        predicates=rng.random((n_preds, pd)),
    )


@pytest.fixture
def model():
    return MSCN(table_dim=6, join_dim=4, predicate_dim=5, hidden_units=16, seed=0)


class TestForward:
    def test_output_shape_and_range(self, model):
        batch = collate([features(), features(n_tables=3)])
        out = model(batch)
        assert out.shape == (2,)
        assert np.all((out.numpy() > 0) & (out.numpy() < 1))

    def test_deterministic(self, model):
        batch = collate([features()])
        assert model(batch).numpy() == model(batch).numpy()

    def test_same_seed_same_model(self):
        a = MSCN(6, 4, 5, hidden_units=8, seed=3)
        b = MSCN(6, 4, 5, hidden_units=8, seed=3)
        batch = collate([features()])
        assert np.array_equal(a(batch).numpy(), b(batch).numpy())

    def test_invalid_hidden_units(self):
        with pytest.raises(TrainingError):
            MSCN(6, 4, 5, hidden_units=0)


class TestSetSemantics:
    def test_permutation_invariance(self, model):
        """Reordering set elements must not change the estimate —
        the core Deep Sets property of the architecture."""
        rng = np.random.default_rng(7)
        f = features(n_tables=4, n_joins=3, n_preds=3, rng=rng)
        batch1 = collate([f])
        shuffled = QueryFeatures(
            tables=f.tables[::-1].copy(),
            joins=f.joins[[2, 0, 1]].copy(),
            predicates=f.predicates[[1, 2, 0]].copy(),
        )
        batch2 = collate([shuffled])
        assert np.allclose(model(batch1).numpy(), model(batch2).numpy())

    def test_padding_does_not_change_output(self, model):
        f = features(n_tables=2)
        alone = model(collate([f])).numpy()[0]
        padded = model(collate([f, features(n_tables=5)])).numpy()[0]
        assert alone == pytest.approx(padded, abs=1e-12)


class TestGradients:
    def test_all_parameters_receive_gradients(self, model):
        batch = collate([features(), features()])
        loss = (model(batch) * 1.0).sum()
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"
            assert np.isfinite(param.grad).all()

    def test_step_memory_stays_near_the_input(self):
        """No op may materialise a per-sample weight gradient.

        One forward+backward at the benchmark's build shapes.  The
        per-sample form of the first table layer's gradient is a
        (256, 1006, 64) temporary, 21x the table input on its own
        (whole step: 23.9x); with one GEMM per layer the step peaks at
        3.6x.
        """
        rng = np.random.default_rng(0)
        batch = Batch(
            tables=rng.random((256, 3, 1006)),
            table_mask=np.ones((256, 3)),
            joins=rng.random((256, 2, 5)),
            join_mask=np.ones((256, 2)),
            predicates=rng.random((256, 5, 18)),
            predicate_mask=np.ones((256, 5)),
        )
        model = MSCN(1006, 5, 18, hidden_units=64, seed=0)
        loss_fn = QErrorLoss(log_max_card=12.0)
        targets = rng.random(256)
        tracemalloc.start()
        try:
            loss_fn(model(batch), targets).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * batch.tables.nbytes, peak / batch.tables.nbytes

    def test_num_parameters_formula(self, model):
        h = 16
        expected = (
            (6 * h + h) + (h * h + h)      # table mlp
            + (4 * h + h) + (h * h + h)    # join mlp
            + (5 * h + h) + (h * h + h)    # predicate mlp
            + (3 * h * h + h) + (h * 1 + 1)  # output mlp
        )
        assert model.num_parameters() == expected


class TestArchitectureRoundtrip:
    def test_roundtrip(self, model):
        arch = model.architecture()
        clone = MSCN.from_architecture(arch)
        clone.load_state_dict(model.state_dict())
        batch = collate([features()])
        assert np.array_equal(model(batch).numpy(), clone(batch).numpy())

    def test_malformed_rejected(self):
        with pytest.raises(TrainingError):
            MSCN.from_architecture({"table_dim": 5})
