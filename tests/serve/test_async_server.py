"""A started SketchServer: background flush triggers, dedup, drain, and
parity."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.demo import SketchManager
from repro.errors import SketchError
from repro.metrics import percentile
from repro.serve import ServeConfig, SketchServer
from repro.workload import Predicate, Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

RTOL = 1e-12
RESULT_TIMEOUT = 30.0  # generous: shared CI runners stall unpredictably


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
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=777)
    return gen.draw_many(30)


def results(futures):
    return [f.result(timeout=RESULT_TIMEOUT) for f in futures]


class TestFlushTriggers:
    def test_max_wait_fires_with_partial_batch(self, manager, workload):
        # Far fewer requests than max_batch_size: only the time trigger
        # can flush them.
        config = ServeConfig(max_batch_size=64, max_wait_ms=40.0, min_idle_ms=None)
        with SketchServer(manager, config).start() as server:
            futures = [server.submit(q) for q in workload[:3]]
            responses = results(futures)
        assert all(r.ok for r in responses)
        assert server.stats.n_flushes_timed >= 1
        assert server.stats.n_flushes_full == 0

    def test_full_batch_flushes_before_max_wait(self, manager, workload):
        # max_wait is far beyond the test timeout: only the size trigger
        # can resolve these futures in time.
        config = ServeConfig(
            max_batch_size=4, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False,
        )
        with SketchServer(manager, config).start() as server:
            futures = [server.submit(q) for q in workload[:4]]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            assert all(r.ok for r in responses)
            assert server.stats.n_flushes_full == 1

    def test_concurrent_submitters_share_one_flush(self, manager, workload):
        # Eight threads each contribute one distinct query inside the
        # max_wait window; a single timed flush answers all of them with
        # one forward pass.
        n = 8
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=500.0, min_idle_ms=None,
            use_cache=False,
        )
        futures = [None] * n
        barrier = threading.Barrier(n)

        with SketchServer(manager, config).start() as server:
            def submit_one(i):
                barrier.wait()
                futures[i] = server.submit(workload[i])

            threads = [
                threading.Thread(target=submit_one, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            responses = results(futures)
        assert all(r.ok for r in responses)
        # One shared flush is the expected outcome; a second is
        # tolerated only for the case a CI scheduler stall stretches
        # the submits past the max_wait window.  8 independent flushes
        # (no sharing at all) must never happen.
        assert server.stats.n_forward_batches <= 2
        assert server.stats.n_flushes <= 2

    def test_idle_trigger_flushes_quiesced_burst_early(self, manager, workload):
        # max_wait is far beyond the test horizon; the burst must flush
        # via the idle trigger shortly after submissions stop.
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=5.0,
            use_cache=False,
        )
        with SketchServer(manager, config).start() as server:
            futures = [server.submit(q) for q in workload[:3]]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            assert all(r.ok for r in responses)
            assert server.stats.n_flushes_idle >= 1
            assert server.stats.n_flushes_timed == 0

    def test_wait_summary_reflects_max_wait(self, manager, workload):
        config = ServeConfig(max_batch_size=64, max_wait_ms=30.0, min_idle_ms=None)
        with SketchServer(manager, config).start() as server:
            results([server.submit(q) for q in workload[:2]])
        waits = server.wait_summary()
        assert waits["count"] == 2.0
        # Queue wait is at least the configured deadline (the buffer
        # never filled) but not unboundedly larger.
        assert waits["max"] >= 0.030 - 1e-3
        assert waits["p50"] <= 5.0


class TestDedup:
    def test_dedup_returns_identical_objects(self, manager, workload):
        config = ServeConfig(max_wait_ms=200.0, min_idle_ms=None, use_cache=False)
        with SketchServer(manager, config).start() as server:
            f1 = server.submit(workload[0])
            f2 = server.submit(workload[0])
            r1, r2 = f1.result(RESULT_TIMEOUT), f2.result(RESULT_TIMEOUT)
        assert r1 is r2
        assert r1.ok
        assert server.stats.n_deduped == 1
        assert server.stats.n_requests == 2
        assert server.stats.n_answered == 2  # every waiter counted

    def test_dedup_spans_submitter_threads(self, manager, workload):
        n = 6
        config = ServeConfig(max_wait_ms=300.0, min_idle_ms=None, use_cache=False)
        futures = [None] * n
        barrier = threading.Barrier(n)
        with SketchServer(manager, config).start() as server:
            def submit_one(i):
                barrier.wait()
                futures[i] = server.submit(workload[0])

            threads = [
                threading.Thread(target=submit_one, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            responses = results(futures)
        assert len({id(r) for r in responses}) == 1
        assert server.stats.n_deduped == n - 1


class TestCaching:
    def test_repeat_query_resolves_at_submit(self, manager, workload):
        config = ServeConfig(max_wait_ms=20.0)
        with SketchServer(manager, config).start() as server:
            first = server.submit(workload[0]).result(RESULT_TIMEOUT)
            assert first.ok
            again = server.submit(workload[0])
            # Resolved synchronously on the submitting thread: no queue
            # wait, no flush.
            assert again.done()
            response = again.result(0)
        assert response.cached
        assert response.estimate == first.estimate
        assert server.stats.n_fast_cache_hits == 1

    @pytest.mark.parametrize("started", [False, True], ids=["caller", "loop"])
    def test_fast_hit_refreshes_recency(
        self, manager, trained_sketch, workload, monkeypatch, started
    ):
        # A submit-time hit is a real cache get: it makes its entry the
        # most recent at once, so the next insert evicts the stale one.
        from repro.cache import LRUCache

        sketch, _ = trained_sketch
        monkeypatch.setattr(sketch, "_cache", LRUCache(maxsize=2))
        a, b, c = list(dict.fromkeys(workload))[:3]
        with SketchServer(manager, ServeConfig(max_wait_ms=5.0)) as server:
            if started:
                server.start()
            server.serve([a])
            server.serve([b])
            hit = server.submit(a)  # resolved at submit; nothing to flush
            assert hit.done() and hit.result(0).cached
            assert server.stats.n_fast_cache_hits == 1
            server.serve([c])
        assert a in sketch.cache and c in sketch.cache
        assert b not in sketch.cache

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_one_cache_lookup_per_query(
        self, manager, trained_sketch, workload, monkeypatch, executor
    ):
        # The submit-time get is a query's only result-cache consult:
        # the flush answers the miss without asking the cache again.
        from repro.cache import LRUCache

        sketch, _ = trained_sketch
        monkeypatch.setattr(sketch, "_cache", LRUCache())
        config = ServeConfig(executor=executor, executor_workers=1)
        with SketchServer(manager, config) as server:
            [first] = server.serve([workload[0]])
            stats = sketch.cache.stats()
            assert (stats.hits, stats.misses) == (0, 1)
            [again] = server.serve([workload[0]])
        assert first.ok and not first.cached
        assert again.cached and again.estimate == first.estimate
        stats = sketch.cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_feature_cache_shared_across_flushes(self, manager, workload):
        import repro.core.featurization as featurization_mod

        template_query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "production_year", ">", 2000),),
        )
        same_template = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "production_year", ">", 1995),),
        )
        config = ServeConfig(max_wait_ms=20.0)
        with SketchServer(manager, config).start() as server:
            assert server.submit(template_query).result(RESULT_TIMEOUT).ok

            builds = []
            original = featurization_mod.Featurizer._build_template

            def counting(self, query, memo):
                builds.append(featurization_mod.template_key(query))
                return original(self, query, memo)

            featurization_mod.Featurizer._build_template = counting
            try:
                response = server.submit(same_template).result(RESULT_TIMEOUT)
            finally:
                featurization_mod.Featurizer._build_template = original
        assert response.ok and not response.cached
        # The second query's template was already cached: structure
        # featurization (one-hot/table/join row construction) never ran.
        assert featurization_mod.template_key(same_template) not in builds
        assert server.feature_cache.stats().hits >= 1


class TestShutdown:
    def test_close_drains_buffered_requests(self, manager, workload):
        # max_wait far beyond the test horizon: only the shutdown drain
        # can flush these.
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False,
        )
        server = SketchServer(manager, config).start()
        futures = [server.submit(q) for q in workload[:5]]
        server.close()
        responses = [f.result(timeout=1.0) for f in futures]  # already resolved
        assert all(r.ok for r in responses)
        assert server.stats.n_answered == 5
        assert server.stats.n_flushes_drain >= 1
        assert server.pending == 0

    def test_submit_after_close_raises(self, manager, workload):
        server = SketchServer(manager).start()
        server.close()
        with pytest.raises(SketchError):
            server.submit(workload[0])

    def test_close_is_idempotent(self, manager):
        server = SketchServer(manager).start()
        server.close()
        server.close()

    def test_cancelled_waiter_cannot_strand_the_loop(self, manager, workload):
        # The pending future is shared by all deduped waiters, so it is
        # uncancellable (moved to RUNNING at creation) — a client-side
        # cancel() must neither kill the flush loop via InvalidStateError
        # nor rob other waiters of their result.
        config = ServeConfig(max_wait_ms=50.0, min_idle_ms=None,
                                  use_cache=False)
        with SketchServer(manager, config).start() as server:
            f1 = server.submit(workload[0])
            f2 = server.submit(workload[0])  # deduped twin, same future
            assert not f1.cancel()
            assert f2.result(RESULT_TIMEOUT).ok
            # The loop survived: a fresh request still resolves.
            assert server.submit(workload[1]).result(RESULT_TIMEOUT).ok

    def test_context_manager_round_trip(self, manager, workload):
        with SketchServer(manager, ServeConfig(max_wait_ms=10.0)).start() as server:
            assert server.submit(workload[0]).result(RESULT_TIMEOUT).ok
        assert server.closed


class TestParityAndErrors:
    def test_estimates_match_single_query_path(self, manager, trained_sketch, workload):
        sketch, _ = trained_sketch
        config = ServeConfig(max_wait_ms=10.0, max_batch_size=8)
        with SketchServer(manager, config).start() as server:
            responses = server.serve(workload[:20])
        assert all(r.ok for r in responses)
        sketch.clear_cache()
        single = [sketch.estimate(q, use_cache=False) for q in workload[:20]]
        np.testing.assert_allclose(
            [r.estimate for r in responses], single, rtol=RTOL, atol=0.0
        )

    def test_malformed_sql_resolves_immediately(self, manager):
        with SketchServer(manager).start() as server:
            future = server.submit("SELECT nonsense;")
            assert future.done()
            response = future.result(0)
        assert not response.ok
        assert server.stats.n_errors == 1

    def test_uncovered_tables_resolve_at_flush(self, manager):
        # Route-at-flush: an uncoverable request defers (the route may
        # still appear) and resolves with a structured route error at
        # its flush — bounded by ~max_wait_ms, never a hung future.
        outside = Query(tables=(TableRef("no_such_table", "x"),))
        with SketchServer(manager).start() as server:
            response = server.submit(outside).result(RESULT_TIMEOUT)
        assert not response.ok
        assert "no registered sketch covers" in response.error

    def test_featurization_failure_is_isolated(self, manager, workload):
        bad = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "episode_nr", "=", 1),),
        )
        config = ServeConfig(max_wait_ms=50.0)
        with SketchServer(manager, config).start() as server:
            responses = server.serve([workload[0], bad, workload[1]])
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok

    def test_asyncio_front_end(self, manager, workload):
        config = ServeConfig(max_wait_ms=20.0)

        async def run():
            with SketchServer(manager, config).start() as server:
                return await asyncio.gather(
                    *[server.submit_async(q) for q in workload[:6]]
                )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)


class TestConfigAndHelpers:
    def test_bad_config_rejected(self):
        with pytest.raises(SketchError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(SketchError):
            ServeConfig(max_wait_ms=-1.0)

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile([], 0.99) == 0.0
