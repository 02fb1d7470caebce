"""Compiled InferenceSession vs the autograd forward (the test oracle).

The acceptance bar for the compiled serving path: predictions agree
with the oracle's ``OracleMSCN.forward`` to <= 1e-12 relative in
float64 and <= 1e-6 relative in float32, across batch sizes
(1 / 7 / 256), ragged set sizes, empty join/predicate sets and a
serving-width model; a trained sketch's ``estimate_many`` agrees with
the oracle path to <= 1e-9; and zero-allocation buffer reuse must
never leak state between calls.
"""

import threading

import numpy as np
import pytest

from repro.core.batches import Batch, collate
from repro.core.featurization import QueryFeatures
from repro.core.mscn import MSCN
from repro.errors import ReproError
from repro.metrics import MIN_CARDINALITY
from repro.nn import InferenceSession
from repro.sampling import query_bitmaps
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator
from tests.nn.oracle import oracle_forward

TABLE_DIM, JOIN_DIM, PRED_DIM, HIDDEN = 12, 4, 7, 16


@pytest.fixture(scope="module")
def model():
    return MSCN(TABLE_DIM, JOIN_DIM, PRED_DIM, hidden_units=HIDDEN, seed=42)


def random_batch(rng, batch_size, max_tables=4, max_joins=3, max_preds=5):
    """Collate a ragged batch (set sizes vary per query; empties included)."""
    features = []
    for _ in range(batch_size):
        n_t = int(rng.integers(1, max_tables + 1))
        n_j = int(rng.integers(1, max_joins + 1))
        n_p = int(rng.integers(1, max_preds + 1))
        features.append(
            QueryFeatures(
                tables=rng.normal(size=(n_t, TABLE_DIM)),
                # Zero rows model the "empty set, active mask bit"
                # encoding the featurizer uses for joins/predicates.
                joins=np.zeros((1, JOIN_DIM)) if n_j == 1 else rng.normal(size=(n_j, JOIN_DIM)),
                predicates=rng.normal(size=(n_p, PRED_DIM)),
            )
        )
    return collate(features)


class TestParity:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_float64(self, model, batch_size):
        rng = np.random.default_rng(batch_size)
        batch = random_batch(rng, batch_size)
        reference = oracle_forward(model, batch)
        compiled = InferenceSession(model, dtype=np.float64).run(batch)
        assert compiled.dtype == np.float64
        np.testing.assert_allclose(compiled, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_float32(self, model, batch_size):
        rng = np.random.default_rng(100 + batch_size)
        batch = random_batch(rng, batch_size)
        reference = oracle_forward(model, batch)
        compiled = InferenceSession(model, dtype=np.float32).run(batch)
        assert compiled.dtype == np.float64  # output contract: always f64
        np.testing.assert_allclose(compiled, reference, rtol=1e-6, atol=1e-7)

    def test_float32_collated_input(self, model):
        """A batch already collated at float32 feeds the session directly."""
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 9)
        session = InferenceSession(model, dtype=np.float32)
        from_f64 = session.run(batch)
        from_f32 = session.run(batch.astype(np.float32))
        np.testing.assert_allclose(from_f32, from_f64, rtol=1e-6, atol=1e-7)

    def test_all_padding_row_matches_autograd(self, model):
        """A fully masked-out set (count clamped to 1) agrees across paths."""
        batch = Batch(
            tables=np.random.default_rng(1).normal(size=(2, 2, TABLE_DIM)),
            table_mask=np.array([[1.0, 1.0], [1.0, 0.0]]),
            joins=np.zeros((2, 1, JOIN_DIM)),
            join_mask=np.zeros((2, 1)),  # entirely empty join sets
            predicates=np.random.default_rng(2).normal(size=(2, 1, PRED_DIM)),
            predicate_mask=np.ones((2, 1)),
        )
        reference = oracle_forward(model, batch)
        compiled = InferenceSession(model).run(batch)
        np.testing.assert_allclose(compiled, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_serving_width_model(self, dtype, bound):
        """A 256-query batch through a serving-sized model (500 sample
        bits, 64 hidden units), max relative error over the batch."""
        table_dim, join_dim, predicate_dim = 6 + 500, 7, 40
        rng = np.random.default_rng(0)
        model = MSCN(table_dim, join_dim, predicate_dim, hidden_units=64, seed=0)
        features = []
        for _ in range(256):
            n_tables = int(rng.integers(1, 5))
            features.append(
                QueryFeatures(
                    tables=rng.random((n_tables, table_dim)),
                    joins=rng.random((max(n_tables - 1, 1), join_dim)),
                    predicates=rng.random((int(rng.integers(1, 5)), predicate_dim)),
                )
            )
        batch = collate(features)
        reference = oracle_forward(model, batch)
        compiled = InferenceSession(model, dtype=dtype).run(batch)
        assert np.max(np.abs(compiled - reference) / np.abs(reference)) <= bound


class TestTrainedSketch:
    def test_estimate_many_matches_the_oracle_path(self, trained_sketch, imdb_small):
        """Batched compiled estimates of a trained sketch vs featurizing
        each query alone and running the oracle forward."""
        sketch, _ = trained_sketch
        queries = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=1).draw_many(48)
        compiled = sketch.estimate_many(queries, use_cache=False)
        reference = []
        for query in queries:
            features = sketch.featurizer.featurize_query(
                query, query_bitmaps(sketch.samples, query), db=sketch._catalog
            )
            prediction = oracle_forward(sketch.model, collate([features]))[0]
            reference.append(
                max(sketch.featurizer.denormalize_label(prediction), MIN_CARDINALITY)
            )
        reference = np.asarray(reference)
        assert np.max(np.abs(compiled - reference) / reference) <= 1e-9


class TestBufferPool:
    def test_repeated_shapes_reuse_buffers(self, model):
        rng = np.random.default_rng(0)
        session = InferenceSession(model)
        batch = random_batch(rng, 8)
        session.run(batch)
        pool_ids = {key: id(buf) for key, buf in session._pool().items()}
        assert pool_ids, "first run should have populated the pool"
        session.run(batch)
        session.run(batch)
        after = {key: id(buf) for key, buf in session._pool().items()}
        for key, ident in pool_ids.items():
            assert after[key] == ident, f"buffer {key} was reallocated"

    def test_returned_array_is_not_a_pooled_buffer(self, model):
        rng = np.random.default_rng(3)
        session = InferenceSession(model)
        batch = random_batch(rng, 4)
        first = session.run(batch)
        kept = first.copy()
        second = session.run(batch)  # same shape: pooled buffers reused
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(second, kept)
        first[:] = -1.0  # mutating the caller's copy must not corrupt state
        np.testing.assert_array_equal(session.run(batch), kept)

    def test_pools_are_thread_local(self, model):
        session = InferenceSession(model)
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 6)
        expected = session.run(batch)
        results = []
        errors = []

        def worker():
            try:
                for _ in range(20):
                    results.append(session.run(batch))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got in results:
            np.testing.assert_array_equal(got, expected)


class TestSnapshotSemantics:
    def test_weights_are_snapshotted(self, model):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 5)
        session = InferenceSession(model)
        before = session.run(batch)
        param = model.params["out_mlp.2.bias"]
        original = param.copy()
        try:
            # In-place update, exactly like a training step's: the
            # session must hold a copy, not an alias of the live array.
            param += 1.0
            np.testing.assert_array_equal(session.run(batch), before)
            recompiled = InferenceSession(model)
            fresh = recompiled.run(batch)
            assert not np.array_equal(fresh, before)
            np.testing.assert_allclose(
                fresh, oracle_forward(model, batch), rtol=1e-12, atol=0.0
            )
        finally:
            param[:] = original

    def test_mscn_compile_helper(self, model):
        session = model.compile()
        assert isinstance(session, InferenceSession)
        assert session.dtype == np.float64
        assert model.compile("float32").dtype == np.float32

    def test_unsupported_dtype_rejected(self, model):
        with pytest.raises(ReproError):
            InferenceSession(model, dtype=np.int32)


class TestFromWeights:
    """Workers compile their session over a payload's arrays."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_equals_the_compiled_model(self, model, dtype):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 9)
        session = InferenceSession.from_weights(
            model.state_dict(), model.architecture(), dtype
        )
        assert session.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(
            session.run(batch), InferenceSession(model, dtype=dtype).run(batch)
        )

    def test_arrays_at_the_session_dtype_are_adopted_not_copied(self, model):
        weights = model.state_dict()
        session = InferenceSession.from_weights(weights, model.architecture())
        assert session._table_mlp.w1 is weights["table_mlp.0.weight"]
        assert session._out_mlp.b2 is weights["out_mlp.2.bias"]

    def test_a_cast_session_holds_its_own_copy(self, model):
        """At another dtype the session casts once and never aliases."""
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 4)
        weights = {k: v.copy() for k, v in model.state_dict().items()}
        session = InferenceSession.from_weights(
            weights, model.architecture(), np.float32
        )
        expected = session.run(batch)
        assert session._table_mlp.w1.dtype == np.float32
        assert not np.shares_memory(session._table_mlp.w1, weights["table_mlp.0.weight"])
        for array in weights.values():
            array += 1.0
        np.testing.assert_array_equal(session.run(batch), expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_read_only_weights_serve(self, model, dtype):
        """Mapped segment views are read-only; the forward never writes them."""
        rng = np.random.default_rng(15)
        batch = random_batch(rng, 7)
        weights = {k: v.copy() for k, v in model.state_dict().items()}
        for array in weights.values():
            array.setflags(write=False)
        session = InferenceSession.from_weights(weights, model.architecture(), dtype)
        np.testing.assert_array_equal(
            session.run(batch), InferenceSession(model, dtype=dtype).run(batch)
        )
        for key, array in model.state_dict().items():
            np.testing.assert_array_equal(weights[key], array)

    def test_sessions_over_one_payload_have_private_pools(self, model):
        weights = model.state_dict()
        first = InferenceSession.from_weights(weights, model.architecture())
        rng = np.random.default_rng(13)
        first.run(random_batch(rng, 2))  # populate this thread's pool
        second = InferenceSession.from_weights(weights, model.architecture())
        assert second._pool() == {}
        assert second._pools is not first._pools

    def test_missing_weight_or_dim_is_a_repro_error(self, model):
        weights = model.state_dict()
        del weights["join_mlp.2.weight"]
        with pytest.raises(ReproError, match="join_mlp.2.weight"):
            InferenceSession.from_weights(weights, model.architecture())
        with pytest.raises(ReproError, match="hidden_units"):
            InferenceSession.from_weights(model.state_dict(), {"table_dim": 1})
