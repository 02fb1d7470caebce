"""batch_bitmaps: parity with the per-query path, predicate memoization."""

import numpy as np
import pytest

from repro.rng import make_rng
from repro.sampling import PredicateMaskMemo, batch_bitmaps, query_bitmaps
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=31)
    return gen.draw_many(120)


class TestParity:
    def test_identical_to_query_bitmaps(self, imdb_samples, workload):
        batched = batch_bitmaps(imdb_samples, workload)
        assert len(batched) == len(workload)
        for query, got in zip(workload, batched):
            expected = query_bitmaps(imdb_samples, query)
            assert set(got) == set(expected)
            for alias in expected:
                assert got[alias].dtype == np.bool_
                assert np.array_equal(got[alias], expected[alias]), (
                    f"bitmap mismatch for {alias} in {query}"
                )

    def test_duplicate_queries_share_arrays(self, imdb_samples, workload):
        query = workload[0]
        batched = batch_bitmaps(imdb_samples, [query, query])
        for alias in query.aliases:
            assert batched[0][alias] is batched[1][alias]

    def test_empty_batch(self, imdb_samples):
        assert batch_bitmaps(imdb_samples, []) == []


class TestMemoization:
    def test_each_distinct_predicate_evaluated_once(self, imdb_samples, workload):
        memo = PredicateMaskMemo(imdb_samples)
        batch_bitmaps(imdb_samples, workload, memo=memo)
        distinct = {
            (q.alias_table(p.alias), p.column, p.op, p.literal)
            for q in workload
            for p in q.predicates
        }
        assert memo.evaluations == len(distinct)

    def test_memo_reused_across_batches(self, imdb_samples, workload):
        memo = PredicateMaskMemo(imdb_samples)
        batch_bitmaps(imdb_samples, workload, memo=memo)
        first = memo.evaluations
        batch_bitmaps(imdb_samples, workload, memo=memo)
        assert memo.evaluations == first  # nothing new to evaluate

    def test_one_predicate_selection_is_the_cached_mask(self, imdb_samples):
        # No ANDed copy per selection: a one-predicate bitmap is the
        # predicate's memoized mask itself.
        from repro.workload.query import Predicate

        memo = PredicateMaskMemo(imdb_samples)
        pred = Predicate("t", "production_year", ">", 2000)
        bitmap = memo.selection_bitmap("title", [pred])
        assert bitmap is memo.predicate_mask("title", pred)
        assert memo.selection_bitmap("title", (pred,)) is bitmap

    def test_unfiltered_alias_bitmap_is_all_ones_over_sample(self, imdb_samples):
        from repro.workload.query import Query, TableRef

        query = Query(tables=(TableRef("title", "t"),))
        (bitmaps,) = batch_bitmaps(imdb_samples, [query])
        expected = query_bitmaps(imdb_samples, query)["t"]
        assert np.array_equal(bitmaps["t"], expected)
        n_sampled = imdb_samples.for_table("title").n_rows
        assert bitmaps["t"][:n_sampled].all()


class TestRandomizedParity:
    def test_random_small_batches(self, imdb_samples, imdb_small):
        rng = make_rng(77)
        gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=78)
        pool = gen.draw_many(60)
        for _ in range(10):
            size = int(rng.integers(1, 20))
            picks = [pool[int(i)] for i in rng.integers(0, len(pool), size)]
            batched = batch_bitmaps(imdb_samples, picks)
            for query, got in zip(picks, batched):
                expected = query_bitmaps(imdb_samples, query)
                for alias in expected:
                    assert np.array_equal(got[alias], expected[alias])
