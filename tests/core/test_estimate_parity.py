"""Batching parity and cache semantics for DeepSketch estimation.

The acceptance bar for the serving fast path: ``estimate_many`` must
return the same values as a loop of single ``estimate`` calls, on
arbitrary workloads (including zero-tuple and single-table queries),
and the LRU cache must return hits without touching the model while
being invalidated by the manager on drop/rebuild.

Batched BLAS kernels may round differently from single-row kernels by
a few ULPs, so cross-path comparisons use an extremely tight relative
tolerance (1e-12) rather than bitwise equality; cache hits, which
return the stored float, are compared exactly.
"""

import numpy as np
import pytest

from repro.sampling import is_zero_tuple
from repro.workload import Predicate, Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator
from tests.nn.oracle import oracle_forward
from tests.helpers import training_set

#: Tolerance for single-vs-batched model output (see module docstring).
RTOL = 1e-12


def assert_paths_agree(single, batched):
    single = np.asarray(single, dtype=np.float64)
    batched = np.asarray(batched, dtype=np.float64)
    np.testing.assert_allclose(batched, single, rtol=RTOL, atol=0.0)


@pytest.fixture(scope="module")
def sketch(trained_sketch):
    sketch, _ = trained_sketch
    return sketch


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=123)
    return gen.draw_many(80)


@pytest.fixture(autouse=True)
def fresh_cache(sketch):
    sketch.clear_cache()
    yield
    sketch.clear_cache()


class TestBatchParity:
    def test_random_workload(self, sketch, workload):
        single = [sketch.estimate(q, use_cache=False) for q in workload]
        batched = sketch.estimate_many(workload, use_cache=False)
        assert_paths_agree(single, batched)

    def test_cached_batch_matches_single(self, sketch, workload):
        single = [sketch.estimate(q, use_cache=False) for q in workload]
        sketch.clear_cache()
        batched = sketch.estimate_many(workload)  # cache on, cold
        assert_paths_agree(single, batched)

    def test_single_table_queries(self, sketch):
        queries = [
            Query(tables=(TableRef("title", "t"),)),
            Query(
                tables=(TableRef("title", "t"),),
                predicates=(Predicate("t", "production_year", ">", 2000),),
            ),
            Query(
                tables=(TableRef("movie_keyword", "mk"),),
                predicates=(Predicate("mk", "keyword_id", "=", 3),),
            ),
        ]
        single = [sketch.estimate(q, use_cache=False) for q in queries]
        batched = sketch.estimate_many(queries, use_cache=False)
        assert_paths_agree(single, batched)

    def test_zero_tuple_queries(self, sketch, imdb_small, workload):
        # Literals far outside the data domain force empty sample bitmaps.
        zero = [
            Query(
                tables=(TableRef("title", "t"),),
                predicates=(Predicate("t", "production_year", ">", 10_000_000),),
            ),
            Query(
                tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
                predicates=(Predicate("mk", "keyword_id", "=", -5),),
            ),
        ]
        assert all(is_zero_tuple(sketch.samples, q) for q in zero)
        mixed = zero + list(workload[:5])
        single = [sketch.estimate(q, use_cache=False) for q in mixed]
        batched = sketch.estimate_many(mixed, use_cache=False)
        assert_paths_agree(single, batched)

    def test_duplicates_collapse_to_one_model_slot(self, sketch, workload):
        query = workload[0]
        batched = sketch.estimate_many([query] * 7, use_cache=False)
        assert len(set(batched.tolist())) == 1
        assert_paths_agree([sketch.estimate(query, use_cache=False)] * 7, batched)

    def test_sql_strings_accepted(self, sketch, workload):
        sqls = [q.to_sql() for q in workload[:10]]
        batched = sketch.estimate_many(sqls, use_cache=False)
        single = [sketch.estimate(s, use_cache=False) for s in sqls]
        assert_paths_agree(single, batched)

    def test_empty_batch(self, sketch):
        assert sketch.estimate_many([]).shape == (0,)


class _ForwardCounter:
    """Wraps the sketch's compiled forward to count model invocations."""

    def __init__(self, sketch, monkeypatch):
        self.calls = 0
        original = sketch._predict_batch

        def counting(batch):
            self.calls += 1
            return original(batch)

        # Estimation dispatches through DeepSketch._predict_batch (the
        # compiled InferenceSession), so an instance-level override
        # intercepts every model invocation on both estimate paths.
        monkeypatch.setattr(sketch, "_predict_batch", counting)


class TestCache:
    def test_hit_returns_same_value_without_forward(self, sketch, workload, monkeypatch):
        query = workload[0]
        first = sketch.estimate(query)
        counter = _ForwardCounter(sketch, monkeypatch)
        again = sketch.estimate(query)
        assert counter.calls == 0
        assert again == first  # cache hits are exact

    def test_batch_hits_skip_the_model(self, sketch, workload, monkeypatch):
        warm = sketch.estimate_many(workload)
        counter = _ForwardCounter(sketch, monkeypatch)
        again = sketch.estimate_many(workload)
        assert counter.calls == 0
        np.testing.assert_array_equal(again, warm)

    def test_canonicalized_queries_share_an_entry(self, sketch, monkeypatch):
        a = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            predicates=(
                Predicate("t", "production_year", ">", 2000),
                Predicate("mk", "keyword_id", "=", 3),
            ),
        )
        # Same query, clauses written in the other order.
        b = Query(
            tables=(TableRef("movie_keyword", "mk"), TableRef("title", "t")),
            predicates=(
                Predicate("mk", "keyword_id", "=", 3),
                Predicate("t", "production_year", ">", 2000),
            ),
        )
        first = sketch.estimate(a)
        counter = _ForwardCounter(sketch, monkeypatch)
        assert sketch.estimate(b) == first
        assert counter.calls == 0

    def test_use_cache_false_bypasses_storage(self, sketch, workload):
        query = workload[0]
        sketch.estimate(query, use_cache=False)
        assert query not in sketch.cache
        sketch.estimate_many([query], use_cache=False)
        assert query not in sketch.cache

    def test_clear_cache_forces_recompute(self, sketch, workload, monkeypatch):
        query = workload[0]
        sketch.estimate(query)
        sketch.clear_cache()
        counter = _ForwardCounter(sketch, monkeypatch)
        sketch.estimate(query)
        assert counter.calls == 1

    def test_stats_track_hits_and_misses(self, sketch, workload):
        sketch.estimate(workload[0])
        sketch.estimate(workload[0])
        stats = sketch.cache.stats()
        assert stats.hits >= 1 and stats.misses >= 1
        assert 0.0 < stats.hit_rate < 1.0


class TestCompiledPath:
    """The serving forward is the compiled session, not the autograd graph,
    and it stays in lockstep with the model across invalidations."""

    def autograd_reference(self, sketch, queries):
        """Estimates via the pre-compilation code path (the oracle)."""
        from repro.core.batches import collate
        from repro.metrics import MIN_CARDINALITY
        from repro.sampling import query_bitmaps

        values = []
        for query in queries:
            bitmaps = query_bitmaps(sketch.samples, query)
            features = sketch.featurizer.featurize_query(
                query, bitmaps, db=sketch._catalog
            )
            prediction = float(oracle_forward(sketch.model, collate([features]))[0])
            values.append(
                max(sketch.featurizer.denormalize_label(prediction), MIN_CARDINALITY)
            )
        return values

    def test_estimates_match_autograd_oracle(self, sketch, workload):
        compiled = [sketch.estimate(q, use_cache=False) for q in workload[:20]]
        reference = self.autograd_reference(sketch, workload[:20])
        np.testing.assert_allclose(compiled, reference, rtol=1e-9, atol=0.0)

    def test_session_is_reused_across_calls(self, sketch, workload):
        first = sketch.inference_session
        sketch.estimate(workload[0], use_cache=False)
        sketch.estimate_many(workload[:5], use_cache=False)
        assert sketch.inference_session is first

    def test_clear_cache_invalidates_session(self, sketch, workload):
        query = workload[0]
        before = sketch.estimate(query, use_cache=False)
        stale_session = sketch.inference_session
        # Mutate the model in place (what an optimizer step does), then
        # invalidate: estimates must reflect the new weights and agree
        # with the autograd oracle again.
        param = sketch.model.params["out_mlp.2.bias"]
        original = param.copy()
        try:
            param += 0.25
            assert sketch.estimate(query, use_cache=False) == before, (
                "stale session still serves the snapshotted weights"
            )
            sketch.clear_cache()
            assert sketch.inference_session is not stale_session
            after = sketch.estimate(query, use_cache=False)
            assert after != before
            np.testing.assert_allclose(
                [after], self.autograd_reference(sketch, [query]), rtol=1e-9
            )
        finally:
            param[:] = original
            sketch.clear_cache()

    def test_retrain_invalidates_session(self, sketch, workload):
        """A real retrain (Trainer.fit on the sketch's model) followed by
        clear_cache() serves estimates from the new weights, in parity
        with the autograd oracle."""
        from repro.core.training import Trainer
        from repro.sampling import query_bitmaps

        state = sketch.model.state_dict()
        before = sketch.estimate(workload[0], use_cache=False)
        features = [
            sketch.featurizer.featurize_query(
                q, query_bitmaps(sketch.samples, q), db=sketch._catalog
            )
            for q in workload[:12]
        ]
        trainer = Trainer(sketch.model, sketch.featurizer, epochs=1, batch_size=4)
        try:
            trainer.fit(training_set(features, np.linspace(0.2, 0.8, 12)))
            sketch.clear_cache()
            after = sketch.estimate(workload[0], use_cache=False)
            assert after != before  # the retrain moved the weights
            compiled = [sketch.estimate(q, use_cache=False) for q in workload[:5]]
            np.testing.assert_allclose(
                compiled,
                self.autograd_reference(sketch, workload[:5]),
                rtol=1e-9,
                atol=0.0,
            )
        finally:
            sketch.model.load_state_dict(state)
            sketch.clear_cache()

    def test_float32_sketch_parity(self, sketch, workload):
        from repro.core.sketch import DeepSketch

        fast = DeepSketch(
            name="f32",
            featurizer=sketch.featurizer,
            model=sketch.model,
            samples=sketch.samples,
            inference_dtype="float32",
        )
        queries = workload[:20]
        exact = [sketch.estimate(q, use_cache=False) for q in queries]
        approx = [fast.estimate(q, use_cache=False) for q in queries]
        # ~1e-7 float32 error in the normalized prediction is amplified
        # by exp(span * v) in denormalization; span ~ 15 here.
        np.testing.assert_allclose(approx, exact, rtol=1e-4, atol=0.0)

    def test_inference_dtype_survives_serialization(self, sketch):
        from repro.core.sketch import DeepSketch

        fast = DeepSketch(
            name="f32-roundtrip",
            featurizer=sketch.featurizer,
            model=sketch.model,
            samples=sketch.samples,
            inference_dtype="float32",
        )
        restored = DeepSketch.from_bytes(fast.to_bytes())
        assert restored.inference_dtype == "float32"
        assert restored.inference_session.dtype == np.float32

    def test_invalid_inference_dtype_rejected(self, sketch):
        from repro.core.sketch import DeepSketch
        from repro.errors import SketchError

        with pytest.raises(SketchError):
            DeepSketch(
                name="bad",
                featurizer=sketch.featurizer,
                model=sketch.model,
                samples=sketch.samples,
                inference_dtype="float16",
            )


class TestManagerInvalidation:
    def test_drop_sketch_clears_cache(self, imdb_small, sketch, workload):
        from repro.demo import SketchManager

        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        manager.query(sketch.name, workload[0])
        assert len(sketch.cache) == 1
        manager.drop_sketch(sketch.name)
        assert len(sketch.cache) == 0

    def test_estimate_many_matches_manager_query(self, imdb_small, sketch, workload):
        from repro.demo import SketchManager

        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        batched = sketch.estimate_many(workload[:20])
        sketch.clear_cache()
        single = [manager.query(sketch.name, q) for q in workload[:20]]
        assert_paths_agree(single, batched)
