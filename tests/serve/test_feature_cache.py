"""FeatureCache and template-keyed featurization reuse."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.featurization import Featurizer, template_key
from repro.sampling.bitmaps import query_bitmaps
from repro.serve.feature_cache import FeatureCache
from repro.workload import Predicate, Query, TableRef, spec_for_imdb


def _query(year: int, with_join: bool = False) -> Query:
    tables = [TableRef("title", "t")]
    joins = ()
    if with_join:
        from repro.workload.query import make_join

        tables.append(TableRef("movie_keyword", "mk"))
        joins = (make_join("mk", "movie_id", "t", "id"),)
    return Query(
        tables=tuple(tables),
        joins=joins,
        predicates=(Predicate("t", "production_year", ">", year),),
    )


def _shapes() -> list[Query]:
    """Three queries of three different templates."""
    return [
        _query(2000),
        _query(2000, with_join=True),
        Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "kind_id", "=", 1),),
        ),
    ]


class TestTemplateKey:
    def test_same_shape_different_literals_share_a_key(self):
        assert template_key(_query(2000)) == template_key(_query(1995))

    def test_literal_is_excluded_but_everything_else_matters(self):
        base = _query(2000)
        other_op = Query(
            tables=base.tables,
            predicates=(Predicate("t", "production_year", "<", 2000),),
        )
        other_column = Query(
            tables=base.tables,
            predicates=(Predicate("t", "kind_id", ">", 2000),),
        )
        with_join = _query(2000, with_join=True)
        keys = {
            template_key(base),
            template_key(other_op),
            template_key(other_column),
            template_key(with_join),
        }
        assert len(keys) == 4


@pytest.fixture(scope="module")
def featurizer_env(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    return sketch.featurizer, sketch.samples, imdb_small


class TestFeatureCacheReuse:
    def test_cached_features_are_identical(self, featurizer_env):
        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=64)
        for query in (_query(2000), _query(1995), _query(2000, with_join=True)):
            bitmaps = query_bitmaps(samples, query)
            plain = featurizer.featurize_query(query, bitmaps, db=db)
            cached = featurizer.featurize_query(
                query, bitmaps, db=db, template_cache=cache
            )
            again = featurizer.featurize_query(
                query, bitmaps, db=db, template_cache=cache
            )
            for a, b in ((plain, cached), (plain, again)):
                np.testing.assert_array_equal(a.tables, b.tables)
                np.testing.assert_array_equal(a.joins, b.joins)
                np.testing.assert_array_equal(a.predicates, b.predicates)

    def test_hit_skips_structure_construction(self, featurizer_env, monkeypatch):
        import repro.core.featurization as featurization_mod

        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=64)
        warm = _query(2000)
        featurizer.featurize_query(
            warm, query_bitmaps(samples, warm), db=db, template_cache=cache
        )

        calls = {"one_hot": 0, "build": 0}
        real_one_hot = featurization_mod._one_hot
        real_build = Featurizer._build_template

        def counting_one_hot(index, size):
            calls["one_hot"] += 1
            return real_one_hot(index, size)

        def counting_build(self, query, memo):
            calls["build"] += 1
            return real_build(self, query, memo)

        monkeypatch.setattr(featurization_mod, "_one_hot", counting_one_hot)
        monkeypatch.setattr(Featurizer, "_build_template", counting_build)

        hit = _query(1995)  # same template, different literal
        features = featurizer.featurize_query(
            hit, query_bitmaps(samples, hit), db=db, template_cache=cache
        )
        assert calls == {"one_hot": 0, "build": 0}
        # ... and the literal slot was still recomputed for THIS query.
        expected = featurizer.featurize_query(hit, query_bitmaps(samples, hit), db=db)
        np.testing.assert_array_equal(features.predicates, expected.predicates)

    def test_batch_uses_template_cache(self, featurizer_env):
        from repro.sampling.bitmaps import batch_bitmaps

        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=64)
        queries = [_query(y) for y in (1990, 1995, 2000, 2005)]
        bitmaps = batch_bitmaps(samples, queries)
        batched = featurizer.featurize_batch(
            queries, bitmaps, db=db, template_cache=cache
        )
        assert len(cache) == 1  # one template, four literals
        for query, features in zip(queries, batched):
            expected = featurizer.featurize_query(
                query, query_bitmaps(samples, query), db=db
            )
            np.testing.assert_array_equal(features.tables, expected.tables)
            np.testing.assert_array_equal(features.predicates, expected.predicates)


class TestFeatureCacheScoping:
    def test_entries_are_scoped_to_the_featurizer_object(self, featurizer_env):
        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=64)
        query = _query(2000)
        key = template_key(query)
        featurizer.featurize_query(
            query, query_bitmaps(samples, query), db=db, template_cache=cache
        )
        assert cache.lookup(featurizer, key) is not None
        # A rebuilt sketch carries a fresh featurizer: same manifest,
        # different object, so the entry must not be served for it.
        rebuilt = Featurizer.from_manifest(featurizer.to_manifest())
        assert cache.lookup(rebuilt, key) is None

    def test_eviction_frees_a_dropped_featurizer(self, featurizer_env):
        # The size bound is what reclaims a dropped sketch's entries:
        # they are never looked up again, so newer ones evict them and
        # the featurizer they pin becomes collectable.
        featurizer, samples, db = featurizer_env
        shapes = _shapes()
        cache = FeatureCache(maxsize=len(shapes))
        dropped = Featurizer.from_manifest(featurizer.to_manifest())
        for query in shapes:
            dropped.featurize_query(
                query, query_bitmaps(samples, query), db=db, template_cache=cache
            )
        assert len(cache) == len(shapes)
        for query in shapes:
            featurizer.featurize_query(
                query, query_bitmaps(samples, query), db=db, template_cache=cache
            )
        assert len(cache) == len(shapes)
        assert all(
            cache.lookup(dropped, template_key(query)) is None for query in shapes
        )
        ref = weakref.ref(dropped)
        del dropped
        gc.collect()
        assert ref() is None

    def test_stats_count_lookups(self, featurizer_env):
        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=8)
        for year in (2000, 1995, 1990):  # one template, three literals
            query = _query(year)
            featurizer.featurize_query(
                query, query_bitmaps(samples, query), db=db, template_cache=cache
            )
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)

    def test_clear_drops_entries(self, featurizer_env):
        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=8)
        query = _query(2000)
        featurizer.featurize_query(
            query, query_bitmaps(samples, query), db=db, template_cache=cache
        )
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(featurizer, template_key(query)) is None

    def test_size_bound(self, featurizer_env):
        featurizer, samples, db = featurizer_env
        cache = FeatureCache(maxsize=2)
        for query in _shapes():
            featurizer.featurize_query(
                query, query_bitmaps(samples, query), db=db, template_cache=cache
            )
        assert len(cache) == 2


def test_servers_sharing_a_cache_reuse_each_others_rows(
    imdb_small, trained_sketch
):
    from repro.demo import SketchManager
    from repro.serve import SketchServer

    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    shared = FeatureCache()
    with SketchServer(manager, feature_cache=shared) as first:
        assert first.serve([_query(2000)])[0].ok
    with SketchServer(manager, feature_cache=shared) as second:
        response = second.serve([_query(1995)])[0]
    sketch.clear_cache()
    assert response.ok and not response.cached
    # The second server's query has the first one's template.
    assert shared.stats().hits == 1


def test_an_empty_shared_cache_is_the_one_the_engine_fills():
    # An empty FeatureCache has length 0; the engine must still take it
    # rather than build its own, or servers meant to share one never do.
    from repro.demo import SketchManager
    from repro.serve.engine import EstimationEngine

    shared = FeatureCache()
    engine = EstimationEngine(SketchManager(db=None), feature_cache=shared)
    try:
        assert engine.feature_cache is shared
    finally:
        engine.close()
