"""EstimationEngine: config validation, admission control, deadlines,
telemetry, and shutdown races."""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.demo import SketchManager
from repro.errors import ReproError, SketchError
from repro.metrics import LatencySummary
from repro.serve import (
    CODE_DEADLINE,
    CODE_SHED,
    ServeConfig,
    SketchServer,
)
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

RESULT_TIMEOUT = 30.0


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
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=2024)
    return gen.draw_many(40)


@pytest.fixture(scope="module")
def distinct(workload):
    """The workload without repeats: intake merges identical in-flight
    queries, so only distinct ones are separate computations."""
    queries = list(dict.fromkeys(workload))
    assert len(queries) >= 20
    return queries


class TestConfigValidation:
    """Satellite: every bad knob is rejected at construction."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_batch_size": -4},
            {"max_wait_ms": 0.0},
            {"max_wait_ms": -1.0},
            {"min_idle_ms": 0.0},
            {"min_idle_ms": -0.5},
            {"executor": "gpu"},
            {"executor": ""},
            {"executor_workers": 0},
            {"max_queue_depth": 0},
            {"max_queue_depth": -1},
            {"executor": "thread"},
            {"deadline_ms": 0.0},
            {"deadline_ms": -5.0},
        ],
    )
    def test_bad_values_raise_repro_error(self, kwargs):
        with pytest.raises(ReproError):
            ServeConfig(**kwargs)
        with pytest.raises(ReproError):
            ServeConfig(**kwargs)

    def test_disabling_sentinels_are_valid(self):
        config = ServeConfig(
            min_idle_ms=None, max_queue_depth=None, deadline_ms=None,
        )
        assert config.max_queue_depth is None

    def test_valid_executor_names(self):
        for name in ("inline", "process"):
            assert ServeConfig(executor=name).executor == name

    @pytest.mark.parametrize("field", ["shed_policy", "mp_start_method", "dedup"])
    def test_removed_options_are_not_fields(self, field):
        # One shed rule, the stdlib's start method, and identical
        # in-flight queries always merging: none of them is a knob.
        with pytest.raises(TypeError, match=field):
            ServeConfig(**{field: None})


class TestAdmissionControlSync:
    def test_overflow_is_shed_with_structured_response(self, manager, workload):
        with SketchServer(
            manager, ServeConfig(max_queue_depth=4, use_cache=False)
        ) as server:
            for query in workload[:6]:
                server.submit(query)
            responses = server.flush()
        assert len(responses) == 6
        served = [r for r in responses if r.ok]
        shed = [r for r in responses if r.code == CODE_SHED]
        assert len(served) == 4
        assert len(shed) == 2
        for response in shed:
            assert not response.ok
            assert response.estimate is None
            assert response.shed
            assert "max_queue_depth" in response.error
        assert server.stats.n_shed == 2
        assert server.stats.n_errors == 2
        assert server.stats.n_answered == 4

    def test_reject_policy_sheds_the_newcomer(self, manager, workload):
        with SketchServer(
            manager,
            ServeConfig(max_queue_depth=2, use_cache=False),
        ) as server:
            responses = server.serve(workload[:4])
        assert [r.ok for r in responses] == [True, True, False, False]

    def test_submit_many_sheds_the_batch_tail(self, manager, workload):
        with SketchServer(
            manager, ServeConfig(max_queue_depth=3, use_cache=False)
        ) as server:
            futures = server.submit_many(workload[:5])
            # The tail is shed at intake, before any flush.
            assert [f.done() for f in futures] == [False] * 3 + [True] * 2
            server.flush()
            responses = [f.result(0) for f in futures]
        assert [r.ok for r in responses] == [True] * 3 + [False] * 2
        assert [r.code for r in responses[3:]] == [CODE_SHED] * 2
        assert server.stats.n_shed == 2

    def test_a_batch_gets_only_the_depth_left(self, manager, workload):
        with SketchServer(
            manager, ServeConfig(max_queue_depth=3, use_cache=False)
        ) as server:
            queued = [server.submit(q) for q in workload[:2]]
            batch = server.submit_many(workload[2:5])
            server.flush()
            responses = [f.result(0) for f in queued + batch]
        # Queued requests are never evicted for a later batch.
        assert [r.ok for r in responses] == [True, True, True, False, False]
        assert server.stats.n_shed == 2

    def test_unbounded_by_default(self, manager, workload):
        with SketchServer(manager, ServeConfig(use_cache=False)) as server:
            responses = server.serve(list(workload) * 4)
        assert all(r.ok for r in responses)
        assert server.stats.n_shed == 0


class TestAdmissionControlAsync:
    def test_burst_beyond_depth_sheds_and_drains_accepted(self, manager, distinct):
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False, max_queue_depth=8,
        )
        server = SketchServer(manager, config).start()
        futures = [server.submit(q) for q in distinct[:20]]
        # Shed futures resolve at submit time, before any flush.
        shed_now = [f for f in futures if f.done()]
        assert len(shed_now) == 12
        assert all(f.result(0).code == CODE_SHED for f in shed_now)
        assert server.pending == 8
        server.close()
        responses = [f.result(timeout=1.0) for f in futures]  # all resolved
        assert sum(1 for r in responses if r.ok) == 8
        assert sum(1 for r in responses if r.code == CODE_SHED) == 12
        assert server.stats.n_shed == 12
        # Accounting closes: every request is answered or errored.
        assert server.stats.n_requests == 20
        assert server.stats.n_answered + server.stats.n_errors == 20

    def test_queue_depth_gauge_tracks_buffered(self, manager, distinct):
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False,
        )
        server = SketchServer(manager, config).start()
        for query in distinct[:5]:
            server.submit(query)
        assert server.stats_summary()["queue_depth"] == 5
        server.close()
        assert server.stats_summary()["queue_depth"] == 0


class TestDeadlines:
    def test_expired_requests_resolve_with_deadline_code(self, manager, workload):
        # The flush deadline (max_wait) is far beyond the per-request
        # deadline, so by the time the engine would serve them the
        # requests have expired: they must resolve promptly (the loop
        # wakes at the deadline, not at max_wait) with code="deadline".
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False, deadline_ms=20.0,
        )
        with SketchServer(manager, config).start() as server:
            t0 = time.monotonic()
            futures = [server.submit(q) for q in workload[:3]]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            elapsed = time.monotonic() - t0
        assert all(not r.ok for r in responses)
        assert all(r.code == CODE_DEADLINE for r in responses)
        assert all("deadline" in r.error for r in responses)
        # Resolved near the 20ms deadline, not the 600s flush horizon.
        assert elapsed < RESULT_TIMEOUT / 2
        assert server.stats.n_deadline_missed == 3

    def test_dedup_never_merges_onto_an_expired_twin(self, manager, workload):
        # A duplicate arriving after its in-flight twin's deadline has
        # passed must become a fresh pending with its own deadline —
        # not inherit a doomed computation and a spurious deadline
        # error despite having waited 0 ms itself.  Driven through the
        # engine directly so the flush timing is caller-controlled.
        from repro.serve import EstimationEngine

        engine = EstimationEngine(
            manager, ServeConfig(use_cache=False, deadline_ms=30.0)
        )
        doomed = engine.submit(workload[0])
        time.sleep(0.06)  # let the first request expire in the buffer
        fresh = engine.submit(workload[0])
        assert fresh is not doomed
        engine.flush_pending()
        assert doomed.result(0).code == CODE_DEADLINE
        assert fresh.result(0).ok, fresh.result(0).error
        assert engine.counters.n_deduped == 0
        engine.close()

    def test_fast_requests_beat_their_deadline(self, manager, workload):
        config = ServeConfig(
            max_wait_ms=2.0, deadline_ms=10_000.0, use_cache=False,
        )
        with SketchServer(manager, config).start() as server:
            response = server.submit(workload[0]).result(RESULT_TIMEOUT)
        assert response.ok
        assert server.stats.n_deadline_missed == 0


class TestTelemetry:
    def test_stats_summary_shape_is_shared_by_both_facades(self, manager, workload):
        with SketchServer(manager) as sync_server:
            sync_server.serve(workload[:4])
            sync_summary = sync_server.stats_summary()
        with SketchServer(manager, ServeConfig(max_wait_ms=5.0)).start() as server:
            server.serve(workload[:4])
        async_summary = server.stats_summary()
        assert set(sync_summary) == set(async_summary)
        for summary in (sync_summary, async_summary):
            assert summary["requests"] == 4
            assert summary["answered"] == 4
            assert summary["queue_depth"] == 0
            assert summary["executor"] == "inline"
            assert set(summary["flushes"]) == {
                "total", "full", "timed", "idle", "drain", "forced",
            }
            for key in ("count", "p50", "p95", "p99", "max"):
                assert key in summary["flush_latency"]
                assert key in summary["queue_wait"]

    def test_flush_latency_summary_observes_chunks(self, manager, workload):
        with SketchServer(manager, ServeConfig(max_batch_size=4)) as server:
            server.serve(workload[:8])
        summary = server.stats_summary()["flush_latency"]
        assert summary["count"] == 2.0
        assert summary["max"] > 0.0
        assert len(server.engine.flush_latency) == 2

    def test_shed_counter_is_a_metrics_counter(self, manager, workload):
        with SketchServer(
            manager, ServeConfig(max_queue_depth=1, use_cache=False)
        ) as server:
            server.serve(workload[:3])
        assert isinstance(server.engine.flush_latency, LatencySummary)
        assert server.stats_summary()["shed"] == 2

    def test_sync_flushes_count_as_forced(self, manager, workload):
        with SketchServer(manager, ServeConfig(max_batch_size=64)) as server:
            server.serve(workload[:3])
        assert server.stats.n_flushes_forced >= 1
        assert server.stats_summary()["flushes"]["forced"] >= 1


class TestShutdownRaces:
    """Satellite: a submit racing close() is served or shed — never hung."""

    def test_concurrent_submits_during_close(self, manager, workload):
        config = ServeConfig(
            max_batch_size=8, max_wait_ms=5.0, use_cache=False,
        )
        server = SketchServer(manager, config).start()
        n_threads = 8
        results: list = [None] * n_threads
        barrier = threading.Barrier(n_threads + 1)

        def hammer(i):
            futures = []
            barrier.wait()
            try:
                for k in range(40):
                    futures.append(server.submit(workload[(i + k) % len(workload)]))
            except SketchError:
                pass  # closed mid-stream: an acceptable structured outcome
            results[i] = futures

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        time.sleep(0.002)  # let submissions overlap the close
        server.close()
        for t in threads:
            t.join(RESULT_TIMEOUT)
            assert not t.is_alive()
        accepted = [f for futures in results for f in futures]
        assert accepted, "the race produced no accepted futures at all"
        for future in accepted:
            # Every future handed out resolves promptly: a served answer
            # or a structured error — never a hang, never a lost request.
            response = future.result(timeout=RESULT_TIMEOUT)
            assert response.ok or response.error is not None
        stats = server.stats
        assert stats.n_requests == stats.n_answered + stats.n_errors

    def test_submit_after_close_raises_not_hangs(self, manager, workload):
        server = SketchServer(manager).start()
        server.close()
        with pytest.raises(SketchError):
            server.submit(workload[0])
        with pytest.raises(SketchError):
            server.submit_many(workload[:2])

    def test_close_with_bounded_queue_drains_accepted_only(self, manager, distinct):
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=600_000.0, min_idle_ms=None,
            use_cache=False, max_queue_depth=3,
        )
        server = SketchServer(manager, config).start()
        futures = [server.submit(q) for q in distinct[:10]]
        server.close()
        responses = [f.result(timeout=1.0) for f in futures]
        assert sum(1 for r in responses if r.ok) == 3
        assert sum(1 for r in responses if r.code == CODE_SHED) == 7
        assert server.pending == 0

    def test_flush_loop_survives_internal_errors(self, manager, workload):
        # An unexpected exception inside the loop body must not kill
        # the flush thread and strand buffered futures — the loop backs
        # off and keeps serving.
        config = ServeConfig(max_wait_ms=5.0)
        server = SketchServer(manager, config).start()
        engine = server.engine
        original = engine._next_deadline_locked
        fired = []

        def flaky(now):
            if not fired:
                fired.append(True)
                raise RuntimeError("injected loop fault")
            return original(now)

        engine._next_deadline_locked = flaky
        try:
            response = server.submit(workload[0]).result(RESULT_TIMEOUT)
        finally:
            engine._next_deadline_locked = original
            server.close()
        assert fired, "the injected fault never fired"
        assert response.ok

    def test_sync_close_is_idempotent_and_reusable_as_context(self, manager, workload):
        server = SketchServer(manager)
        server.submit(workload[0])
        server.close()
        server.close()
        assert server.engine.closed


class TestEngineViews:
    def test_facades_share_one_engine_implementation(self, manager):
        sync_server = SketchServer(manager)
        started = SketchServer(manager).start()
        assert type(sync_server.engine) is type(started.engine)
        assert sync_server.stats is sync_server.engine.counters
        assert started.stats is started.engine.counters
        assert sync_server.manager is manager
        assert started.manager is manager
        started.close()

    def test_sync_submit_returns_future_resolved_by_flush(self, manager, workload):
        # The SketchService surface: submit returns a future on every
        # implementation; caller-driven, it resolves at flush time.
        server = SketchServer(manager)
        first = server.submit(workload[0])
        second = server.submit(workload[1])
        assert isinstance(first, Future) and isinstance(second, Future)
        assert not first.done() and not second.done()
        assert server.pending == 2
        responses = server.flush()
        assert server.pending == 0
        assert first.done() and second.done()
        assert [first.result(), second.result()] == responses
        server.close()

    def test_resolved_futures_are_futures(self, manager):
        with SketchServer(manager).start() as server:
            future = server.submit("SELECT nonsense;")
            assert isinstance(future, Future)
            assert future.done()

    def _build_late_sketch(self, imdb_small):
        from repro.core import SketchConfig, build_sketch

        sketch, _ = build_sketch(
            imdb_small,
            spec_for_imdb(),
            name="late",
            config=SketchConfig(
                n_training_queries=300, epochs=1, sample_size=50,
                hidden_units=16, seed=3,
            ),
        )
        return sketch

    def test_route_at_flush_on_sync_facade(self, imdb_small, workload):
        # Regression (PR 4 routed at submit): a request submitted
        # before any covering sketch exists must still succeed if a
        # covering sketch is registered before the flush — the route
        # decision is deferred, not failed.
        empty = SketchManager(imdb_small)
        server = SketchServer(empty)
        early_future = server.submit(workload[0])
        assert not early_future.done()  # deferred, not failed
        empty.register_sketch(self._build_late_sketch(imdb_small))
        server.submit(workload[0])
        early, late = server.flush()
        server.close()
        assert early.ok and early.sketch == "late"
        assert early.estimate is not None and early.estimate > 0
        assert late.ok and late.sketch == "late"

    def test_route_at_flush_on_async_facade(self, imdb_small, workload):
        # Same contract through a started server: a long
        # max_wait keeps the flush from firing before the registration
        # lands; leaving the context drains, which is the flush.
        empty = SketchManager(imdb_small)
        with SketchServer(
            empty, ServeConfig(max_wait_ms=60_000.0, min_idle_ms=None)
        ).start() as server:
            future = server.submit(workload[0])
            assert not future.done()
            empty.register_sketch(self._build_late_sketch(imdb_small))
        response = future.result(RESULT_TIMEOUT)
        assert response.ok and response.sketch == "late"
        assert response.estimate is not None and response.estimate > 0

    def test_unroutable_at_flush_is_still_a_route_error(self, imdb_small, workload):
        # With no covering sketch by flush time, the deferred request
        # resolves with the same structured route error as before.
        empty = SketchManager(imdb_small)
        server = SketchServer(empty)
        future = server.submit(workload[0])
        (response,) = server.flush()
        server.close()
        assert future.done()
        assert not response.ok and response.code == "route"
        assert "no registered sketch covers" in response.error

    def test_unknown_pin_reroutes_at_flush(self, imdb_small, workload):
        # A pinned request whose sketch name is unknown at submit time
        # defers too — and succeeds when the pin appears before flush.
        empty = SketchManager(imdb_small)
        server = SketchServer(empty)
        future = server.submit(workload[0], sketch="late")
        assert not future.done()
        empty.register_sketch(self._build_late_sketch(imdb_small))
        (response,) = server.flush()
        server.close()
        assert response.ok and response.sketch == "late"
