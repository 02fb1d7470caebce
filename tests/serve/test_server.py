"""SketchServer: routing, micro-batching, caching, error isolation, and
the caller-driven / started states."""

import time

import numpy as np
import pytest

from repro.demo import SketchManager
from repro.errors import SketchError
from repro.serve import EstimateResponse, ServeConfig, SketchServer
from repro.serve.engine import ServerStats, answer_chunk, prepare_request
from repro.workload import Predicate, Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

RTOL = 1e-12


@pytest.fixture()
def manager(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    yield manager
    sketch.clear_cache()


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=321)
    return gen.draw_many(40)


class TestServe:
    def test_batch_matches_single_estimates(self, manager, trained_sketch, workload):
        sketch, _ = trained_sketch
        server = SketchServer(manager)
        responses = server.serve(workload)
        assert all(r.ok for r in responses)
        assert [r.sketch for r in responses] == [sketch.name] * len(workload)
        sketch.clear_cache()
        single = [sketch.estimate(q, use_cache=False) for q in workload]
        np.testing.assert_allclose(
            [r.estimate for r in responses], single, rtol=RTOL, atol=0.0
        )

    def test_accepts_sql_strings(self, manager, workload):
        sqls = [q.to_sql() for q in workload[:5]]
        responses = SketchServer(manager).serve(sqls)
        assert all(r.ok for r in responses)
        assert all(isinstance(r.query, Query) for r in responses)

    def test_responses_in_submission_order(self, manager, workload):
        server = SketchServer(manager)
        for q in workload[:7]:
            server.submit(q)
        assert server.pending == 7
        responses = server.flush()
        assert server.pending == 0
        assert [r.request for r in responses] == list(workload[:7])

    def test_micro_batching_counts_forwards(self, manager, workload):
        server = SketchServer(manager, ServeConfig(max_batch_size=8, use_cache=False))
        server.serve(workload[:20])
        assert server.stats.n_forward_batches == 3  # ceil(20 / 8)
        assert server.stats.n_answered == 20

    def test_duplicate_heavy_stream_hits_cache(self, manager, workload):
        distinct = list(workload[:6])
        assert len(set(distinct)) == 6
        stream = [distinct[i % len(distinct)] for i in range(48)]
        server = SketchServer(manager, ServeConfig(max_batch_size=16))
        # One micro-batch answers the distinct queries; within one
        # stream, intake dedup would merge the repeats before they ever
        # reach the cache (see TestCoalescing).
        server.serve(distinct)
        assert server.stats.n_forward_batches == 1
        responses = server.serve(stream)
        assert all(r.ok for r in responses)
        # Every repeat is answered from the cache, none by the model.
        assert all(r.cached for r in responses)
        assert server.stats.n_cache_hits == len(stream)
        assert server.stats.n_forward_batches == 1
        # Repeats of one query all answer identically.
        values = {}
        for r in responses:
            values.setdefault(r.query, set()).add(r.estimate)
        assert all(len(v) == 1 for v in values.values())

    def test_flush_on_empty_queue(self, manager):
        assert SketchServer(manager).flush() == []


class TestErrors:
    def test_malformed_sql_is_isolated(self, manager, workload):
        server = SketchServer(manager)
        responses = server.serve(["SELECT nonsense;", workload[0].to_sql()])
        assert not responses[0].ok and responses[0].estimate is None
        assert responses[1].ok and responses[1].estimate is not None
        assert server.stats.n_errors == 1
        assert server.stats.n_answered == 1

    def test_every_failure_class_has_a_structured_code(self, manager, workload):
        # The satellite contract: parse/route/vocab failures carry
        # dispatchable codes (shed/deadline covered in test_engine.py),
        # successes stay code=None, messages are unchanged.
        from repro.serve import CODE_PARSE, CODE_ROUTE, CODE_VOCAB

        vocab_query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "episode_nr", "=", 1),),
        )
        server = SketchServer(manager)
        ok, parse, route, vocab = server.serve(
            [
                workload[0],
                "SELECT nonsense;",
                Query(tables=(TableRef("no_such_table", "x"),)),
                vocab_query,
            ]
        )
        assert ok.ok and ok.code is None
        assert parse.code == CODE_PARSE and "nonsense" in parse.error
        assert route.code == CODE_ROUTE
        assert "no registered sketch covers" in route.error
        assert vocab.code == CODE_VOCAB and vocab.error

    def test_unknown_pinned_sketch_has_route_code(self, manager, workload):
        from repro.serve import CODE_ROUTE

        responses = SketchServer(manager).serve([workload[0]], sketch="ghost")
        assert responses[0].code == CODE_ROUTE

    def test_uncovered_tables_are_isolated(self, manager, workload):
        outside = Query(tables=(TableRef("no_such_table", "x"),))
        responses = SketchServer(manager).serve([outside, workload[0]])
        assert not responses[0].ok
        assert "no registered sketch covers" in responses[0].error
        assert responses[1].ok

    def test_unknown_pinned_sketch(self, manager, workload):
        responses = SketchServer(manager).serve([workload[0]], sketch="ghost")
        assert not responses[0].ok
        assert "ghost" in responses[0].error

    def test_unknown_predicate_column_is_isolated(self, manager, workload):
        # Covered tables but a column outside the sketch's vocabulary:
        # passes routing, fails featurization, must not poison the batch.
        bad = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "episode_nr", "=", 1),),
        )
        responses = SketchServer(manager).serve([workload[0], bad, workload[1]])
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok

    def test_fallback_retry_accounts_duplicates_as_cache_hits(
        self, manager, trained_sketch, workload, monkeypatch
    ):
        # A poisoned micro-batch falls back to per-query retries; the
        # second occurrence of a duplicate must be answered (and
        # counted) from the first retry, without a result-cache lookup
        # (the submit-time one is each query's only consult).  Intake
        # merges identical queries, so the duplicate chunk is handed to
        # the chunk path directly.
        from repro.cache import LRUCache

        sketch, _ = trained_sketch
        monkeypatch.setattr(sketch, "_cache", LRUCache())
        bad = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "episode_nr", "=", 1),),
        )
        good = workload[0]
        chunk = [prepare_request(manager, q, None) for q in (good, bad, good)]
        stats = ServerStats()
        answer_chunk(sketch, chunk, use_cache=True, stats=stats)
        assert chunk[0].ok and chunk[2].ok and not chunk[1].ok
        assert chunk[2].cached
        assert chunk[0].estimate == chunk[2].estimate
        assert stats.n_forward_batches == 1
        assert stats.n_cache_hits == 1
        assert good in sketch.cache
        cache_stats = sketch.cache.stats()
        assert (cache_stats.hits, cache_stats.misses) == (0, 0)

    def test_bad_config_rejected(self):
        with pytest.raises(SketchError):
            ServeConfig(max_batch_size=0)


class TestRouting:
    def test_routes_to_narrowest_covering_sketch(self, manager, imdb_small, workload):
        from repro.core import SketchConfig, build_sketch

        narrow, _ = build_sketch(
            imdb_small,
            spec_for_imdb(tables=("title", "movie_keyword")),
            name="narrow",
            config=SketchConfig(
                n_training_queries=300, epochs=2, sample_size=50,
                hidden_units=16, seed=11,
            ),
        )
        manager.register_sketch(narrow)
        narrow_query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "production_year", ">", 2000),),
        )
        wide_query = workload[0]
        responses = SketchServer(manager).serve([narrow_query, wide_query])
        assert responses[0].sketch == "narrow"
        assert all(r.ok for r in responses)

    def test_route_many_matches_route(self, manager, workload):
        batch = manager.route_many(list(workload[:10]))
        for query, (name, estimate) in zip(workload[:10], batch):
            single_name, single_estimate = manager.route(query)
            assert name == single_name
            assert estimate == pytest.approx(single_estimate, rel=RTOL)


class TestCoalescing:
    """Caller-driven intake coalesces exactly as a started server's does."""

    def test_repeats_merge_at_intake(self, manager, workload):
        distinct = list(workload[:6])
        stream = [distinct[i % len(distinct)] for i in range(48)]
        server = SketchServer(manager, ServeConfig(max_batch_size=16))
        responses = server.serve(stream)
        assert all(r.ok for r in responses)
        assert server.stats.n_deduped == 42
        assert server.stats.n_forward_batches == 1
        assert server.stats.n_answered == 48
        # Every waiter on one computation gets the same response object.
        assert all(r is responses[i % 6] for i, r in enumerate(responses))

    def test_cached_repeat_resolves_at_submit(self, manager, workload):
        server = SketchServer(manager)
        (first,) = server.serve([workload[0]])
        again = server.submit(workload[0])
        assert again.done()  # no flush needed
        assert again.result(0).cached
        assert again.result(0).estimate == first.estimate
        assert server.stats.n_fast_cache_hits == 1
        assert server.flush() == [again.result(0)]

    def test_serve_returns_only_its_own_stream(self, manager, workload):
        server = SketchServer(manager)
        earlier = server.submit(workload[0])
        responses = server.serve(workload[1:3])
        assert [r.request for r in responses] == list(workload[1:3])
        assert earlier.done()  # the serve's flush answered it too
        assert server.flush() == []


class TestStart:
    """Caller-driven until start(); a background loop flushes after."""

    def test_futures_wait_for_the_caller_until_start(self, manager, workload):
        config = ServeConfig(max_wait_ms=1.0, min_idle_ms=None)
        with SketchServer(manager, config) as server:
            future = server.submit(workload[0])
            time.sleep(0.05)  # fifty max_waits: no loop is running
            assert not server.started and not future.done()
            assert server.start() is server and server.started
            # Submitted before start(), answered by the loop.
            assert future.result(timeout=30.0).ok
            later = server.submit(workload[1])
            assert later.result(timeout=30.0).ok
        assert server.stats.n_flushes_forced == 0
        assert server.stats.n_flushes_timed >= 1

    def test_context_manager_does_not_start(self, manager):
        with SketchServer(manager) as server:
            assert not server.started
        assert server.closed

    def test_flush_after_start_raises(self, manager, workload):
        with SketchServer(manager).start() as server:
            with pytest.raises(SketchError, match="started"):
                server.flush()
            assert server.estimate(workload[0]).ok
            assert [r.ok for r in server.serve(workload[1:4])] == [True] * 3
            assert server.plan(workload[0]).ok

    def test_start_after_close_raises(self, manager):
        server = SketchServer(manager)
        server.close()
        with pytest.raises(SketchError):
            server.start()


class TestResponses:
    def test_response_shape(self, manager, workload):
        (response,) = SketchServer(manager).serve([workload[0]])
        assert isinstance(response, EstimateResponse)
        assert response.request is workload[0]
        assert response.query == workload[0]
        assert response.estimate >= 1.0
        assert response.error is None
