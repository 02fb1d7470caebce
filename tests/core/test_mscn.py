"""MSCN model tests: shapes, set semantics, parameters, gradients, serialization."""

import tracemalloc

import numpy as np
import pytest

from repro.core import MSCN, collate
from repro.core.batches import Batch
from repro.core.featurization import QueryFeatures
from repro.errors import SerializationError, TrainingError
from repro.nn import TrainingSession
from tests.nn.oracle import OracleMSCN, packed


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


def predict(model, batch):
    return model.compile().run(batch)


class TestForward:
    def test_output_shape_and_range(self, model):
        batch = collate([features(), features(n_tables=3)])
        out = predict(model, batch)
        assert out.shape == (2,)
        assert np.all((out > 0) & (out < 1))

    def test_deterministic(self, model):
        batch = collate([features()])
        assert predict(model, batch) == predict(model, batch)

    def test_same_seed_same_model(self):
        a = MSCN(6, 4, 5, hidden_units=8, seed=3)
        b = MSCN(6, 4, 5, hidden_units=8, seed=3)
        batch = collate([features()])
        assert np.array_equal(predict(a, batch), predict(b, batch))

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
        assert np.allclose(predict(model, batch1), predict(model, batch2))

    def test_padding_does_not_change_output(self, model):
        f = features(n_tables=2)
        alone = predict(model, collate([f]))[0]
        padded = predict(model, collate([f, features(n_tables=5)]))[0]
        assert alone == pytest.approx(padded, abs=1e-12)


class TestParameters:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_initialization_is_the_reference_draws(self, seed):
        """Same Kaiming draws, in the same order, under the same keys as
        the autograd model's ``Sequential(Linear, ReLU, Linear, ...)``:
        committed sketches keep loading and seeded builds keep their
        initial weights."""
        want = OracleMSCN(6, 4, 5, hidden_units=8, seed=seed).state_dict()
        got = MSCN(6, 4, 5, hidden_units=8, seed=seed).state_dict()
        assert list(got) == list(want)
        for name, value in want.items():
            assert got[name].dtype == np.float64
            assert got[name].tobytes() == value.tobytes(), name

    def test_load_state_dict_copies_into_the_live_arrays(self, model):
        """A session holding the model's arrays sees a load."""
        live = list(model.params.values())
        state = MSCN(6, 4, 5, hidden_units=16, seed=9).state_dict()
        model.load_state_dict(state)
        for array, (name, value) in zip(live, state.items()):
            assert array is model.params[name]
            np.testing.assert_array_equal(array, value)

    def test_load_state_dict_rejects_mismatches(self, model):
        state = model.state_dict()
        with pytest.raises(SerializationError, match="missing"):
            model.load_state_dict({k: v for k, v in state.items() if k != "out_mlp.2.bias"})
        with pytest.raises(SerializationError, match="unexpected"):
            model.load_state_dict({**state, "extra": np.zeros(1)})
        with pytest.raises(SerializationError, match="shape"):
            model.load_state_dict({**state, "out_mlp.2.bias": np.zeros(2)})


class TestGradients:
    def test_all_parameters_receive_gradients(self, model):
        batch = collate([features(), features()])
        session = TrainingSession(
            model, loss="qerror", log_max_card=9.0, learning_rate=1e-3
        )
        _, grads = session.gradients(packed(batch), np.array([0.2, 0.7]), np.arange(2))
        assert list(grads) == list(model.params)
        for name, grad in grads.items():
            assert grad.shape == model.params[name].shape
            assert np.isfinite(grad).all(), f"bad grad for {name}"
            assert grad.any(), f"no grad for {name}"

    def test_step_memory_stays_near_the_input(self):
        """No op may materialise a per-sample weight gradient.

        One cold forward+backward (buffers allocated) at the benchmark's
        build shapes.  The per-sample form of the first table layer's
        gradient is a (256, 1006, 64) temporary, 21x the table input on
        its own (whole step: 23.9x); the packed session's cold step
        peaks at 3.0x (its pooled buffers included) and a warm one at
        0.05x.
        """
        rng = np.random.default_rng(0)
        batch = packed(Batch(
            tables=rng.random((256, 3, 1006)),
            table_mask=np.ones((256, 3)),
            joins=rng.random((256, 2, 5)),
            join_mask=np.ones((256, 2)),
            predicates=rng.random((256, 5, 18)),
            predicate_mask=np.ones((256, 5)),
        ))
        session = TrainingSession(
            MSCN(1006, 5, 18, hidden_units=64, seed=0),
            loss="qerror", log_max_card=12.0, learning_rate=1e-3,
        )
        targets = rng.random(256)
        tracemalloc.start()
        try:
            session.gradients(batch, targets, np.arange(256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * batch.tables.rows.nbytes, peak / batch.tables.rows.nbytes

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
        assert np.array_equal(predict(model, batch), predict(clone, batch))

    def test_malformed_rejected(self):
        with pytest.raises(TrainingError):
            MSCN.from_architecture({"table_dim": 5})
