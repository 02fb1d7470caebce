"""Executors: one contract for all three modes, then the slot counts.

``TestExecutorContract`` states what every executor owes the engine
and runs it over ``inline``, ``process`` and ``process`` +
``shm_snapshots``.  ``TestSlotPlacement`` pins the process executor's
install / placement / release behaviour by exact counts read through
``ProcessExecutor.slots()``.
"""

import dataclasses
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.sketch import DeepSketch
from repro.demo import SketchManager
from repro.serve import (
    CODE_ROUTE,
    CODE_VOCAB,
    EXECUTOR_NAMES,
    InlineExecutor,
    ProcessExecutor,
    ServeConfig,
    SketchServer,
    live_segment_names,
    make_executor,
)
from repro.serve import executor as executor_module
from repro.workload import Predicate, Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator
from tests.helpers import WatchedExecutor

#: Acceptance bound where batch shapes may differ (served vs single-query
#: estimates, a started server's timed flushes vs inline); the same bytes
#: over the same batches are held to equality.
PARITY_RTOL = 1e-12
RESULT_TIMEOUT = 60.0

#: The three ways a deployment can run micro-batches.
MODES = {
    "inline": {"executor": "inline"},
    "process": {"executor": "process", "executor_workers": 2},
    "process+shm": {
        "executor": "process", "executor_workers": 2, "shm_snapshots": True,
    },
}
PROCESS_MODES = ["process", "process+shm"]


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
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=909)
    return gen.draw_many(32)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """No test here may leave a shared-memory segment behind."""
    assert live_segment_names() == set()
    yield
    assert live_segment_names() == set()


def config_for(mode: str) -> ServeConfig:
    return ServeConfig(max_batch_size=8, use_cache=False, **MODES[mode])


def clone(sketch, name: str | None = None) -> DeepSketch:
    """An independent replica with its own snapshot token (and name)."""
    replica = DeepSketch.from_bytes(sketch.to_bytes())
    return replica if name is None else dataclasses.replace(replica, name=name)


def serve_all(server, queries, sketch=None) -> list[float]:
    responses = server.serve(list(queries), sketch)
    assert all(r.ok for r in responses), [
        r.error for r in responses if not r.ok
    ][:3]
    return [r.estimate for r in responses]


def kill(pids) -> None:
    for pid in pids:
        os.kill(pid, signal.SIGKILL)


def vocab_miss() -> Query:
    """A routable query outside the sketch's featurization vocabulary."""
    return Query(
        tables=(TableRef("title", "t"),),
        predicates=(Predicate("t", "episode_nr", "=", 1),),
    )


class TestFactory:
    def test_executor_names(self):
        assert EXECUTOR_NAMES == ("inline", "process")

    def test_make_executor_by_name(self):
        assert isinstance(make_executor(ServeConfig(executor="inline")), InlineExecutor)
        assert isinstance(make_executor(ServeConfig(executor="process")), ProcessExecutor)

    def test_process_slots_take_the_stdlib_start_method(
        self, manager, workload, monkeypatch
    ):
        # No method is named, so multiprocessing.set_start_method decides.
        import multiprocessing

        real, asked = multiprocessing.get_context, []

        def spy(method=None):
            asked.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        with SketchServer(manager, config_for("process")) as server:
            serve_all(server, workload[:8])
            assert server.stats.n_executor_fallbacks == 0
        assert asked and set(asked) == {None}

    def test_worker_counts(self):
        executor = make_executor(
            ServeConfig(executor="process", executor_workers=3)
        )
        assert executor.workers == 3
        assert executor.slots() == [
            {"pid": None, "sketches": {}, "jobs": 0, "installs": 0}
        ] * 3
        executor.close()


class TestWorkerAnswer:
    """The worker task runs the inline chunk path on its replica.

    Called in this process over a replica placed where a worker's
    install task would put it, so the results are read directly.
    """

    @pytest.fixture()
    def replica(self, trained_sketch, monkeypatch):
        sketch, _ = trained_sketch
        replica = clone(sketch)
        monkeypatch.setitem(executor_module._WORKER_SKETCHES, "w", replica)
        return replica

    def test_a_clean_batch_is_one_forward(self, replica, workload):
        queries = list(workload[:6])
        results, n_forwards = executor_module._worker_answer("w", queries)
        expected = replica.estimate_many(queries, use_cache=False)
        assert results == [(float(v), None, None) for v in expected]
        assert n_forwards == 1

    def test_a_vocab_miss_is_retried_one_query_at_a_time(
        self, replica, workload
    ):
        queries = [workload[0], vocab_miss(), workload[1]]
        results, n_forwards = executor_module._worker_answer("w", queries)
        good = [replica.estimate(q, use_cache=False) for q in queries[::2]]
        assert [results[0][0], results[2][0]] == good
        assert results[0][1:] == results[2][1:] == (None, None)
        estimate, error, code = results[1]
        assert estimate is None and error and code == CODE_VOCAB
        assert n_forwards == 2  # one per query that was answered

    def test_a_missing_replica_raises(self, replica, workload):
        with pytest.raises(RuntimeError, match="no snapshot"):
            executor_module._worker_answer("absent", [workload[0]])


@pytest.mark.parametrize("mode", list(MODES))
class TestExecutorContract:
    """What every executor owes the engine, whichever way it runs."""

    def test_answers_equal_the_inline_path(self, manager, workload, mode):
        with SketchServer(manager, config_for("inline")) as server:
            inline = serve_all(server, workload)
        manager.get_sketch("test-sketch").clear_cache()
        with SketchServer(manager, config_for(mode)) as server:
            values = serve_all(server, workload)
            stats = server.stats
        # same bytes (copied or mapped) over the same batches: identity,
        # not approximation
        assert values == inline
        # The executor really ran: no degraded-to-inline chunks.
        assert stats.n_executor_fallbacks == 0
        assert stats.n_forward_batches >= 4

    def test_featurization_failure_fails_only_its_own_request(
        self, manager, workload, mode
    ):
        batch = [workload[0], vocab_miss(), workload[1]]
        with SketchServer(manager, config_for("inline")) as server:
            inline = server.serve(batch)
            inline_forwards = server.stats.n_forward_batches
        with SketchServer(manager, config_for(mode)) as server:
            responses = server.serve(batch)
            forwards = server.stats.n_forward_batches
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].code == CODE_VOCAB
        # the worker runs the inline chunk path: same answers, same
        # per-query retry forwards
        assert [responses[0].estimate, responses[2].estimate] == [
            inline[0].estimate, inline[2].estimate
        ]
        assert forwards == inline_forwards

    def test_sketch_dropped_before_its_flush_answers_route(
        self, manager, workload, mode
    ):
        with SketchServer(manager, config_for(mode)) as server:
            futures = server.submit_many(list(workload[:12]))
            manager.drop_sketch("test-sketch")
            responses = server.flush()
        assert all(f.done() for f in futures)
        assert [r.code for r in responses] == [CODE_ROUTE] * 12

    def test_no_round_mixes_generations_across_a_swap(
        self, manager, workload, mode
    ):
        original = manager.get_sketch("test-sketch")
        replacement = clone(original)
        for p in replacement.model.params.values():
            p += 0.05  # a visibly different generation
        expected = [
            replacement.estimate(q, use_cache=False) for q in workload[16:]
        ]
        with SketchServer(manager, config_for(mode)) as server:
            before = server.serve(list(workload[:16]))
            server.engine.swap_sketch("test-sketch", replacement)
            after = server.serve(list(workload[16:]))
        assert all(r.ok for r in before + after)
        assert {r.token for r in after} == {replacement.snapshot_token}
        assert {r.token for r in before}.isdisjoint({r.token for r in after})
        # ...and the stamped token tells the truth about the weights
        np.testing.assert_allclose(
            [r.estimate for r in after], expected, rtol=PARITY_RTOL, atol=0.0
        )

    def test_close_drains_every_accepted_request(self, manager, workload, mode):
        server = SketchServer(manager, config_for(mode))
        futures = server.submit_many(list(workload))
        assert not any(f.done() for f in futures)
        server.close()
        assert all(f.done() for f in futures)
        assert all(f.result().ok for f in futures)
        if mode in PROCESS_MODES:
            assert all(
                slot["pid"] is None for slot in server.engine.executor.slots()
            )


@pytest.mark.parametrize("mode", PROCESS_MODES)
class TestSlotPlacement:
    """Install / placement / release, by count, through ``slots()``."""

    def test_killed_workers_degrade_inline_and_recover(
        self, manager, workload, mode
    ):
        # Kill every worker between rounds: the next flush must still
        # answer every request (degrading to the inline path) and count
        # the fallback, and the round after runs on fresh workers —
        # never a BrokenProcessPool through a response.
        with SketchServer(manager, config_for(mode)) as server:
            executor = server.engine.executor
            serve_all(server, workload)
            killed = [slot["pid"] for slot in executor.slots()]
            assert None not in killed
            kill(killed)
            serve_all(server, workload)
            degraded = server.stats.n_executor_fallbacks
            assert degraded >= 1
            serve_all(server, workload)
            assert server.stats.n_executor_fallbacks == degraded
            recovered = [slot["pid"] for slot in executor.slots()]
            assert None not in recovered
            assert set(recovered).isdisjoint(killed)
            if mode == "process+shm":
                assert len(live_segment_names()) == 1  # reused, not leaked

    def test_killing_one_worker_leaves_the_other_slot_alone(
        self, manager, workload, mode
    ):
        with SketchServer(manager, config_for(mode)) as server:
            executor = server.engine.executor
            serve_all(server, workload)
            victim, survivor = [slot["pid"] for slot in executor.slots()]
            kill([victim])
            serve_all(server, workload)
            assert server.stats.n_executor_fallbacks >= 1
            serve_all(server, workload)
            first, second = executor.slots()
            assert first["pid"] not in (None, victim)
            assert second["pid"] == survivor
            assert second["installs"] == 1

    def test_generation_change_reships_to_the_same_workers(
        self, manager, workload, mode
    ):
        sketch = manager.get_sketch("test-sketch")
        with SketchServer(manager, config_for(mode)) as server:
            executor = server.engine.executor
            serve_all(server, workload)
            before = executor.slots()
            sketch.clear_cache()
            serve_all(server, workload)
            after = executor.slots()
            assert server.stats.n_executor_fallbacks == 0
        assert [s["pid"] for s in after] == [s["pid"] for s in before]
        assert [s["installs"] for s in before] == [1, 1]
        assert [s["installs"] for s in after] == [2, 2]
        token = sketch.snapshot_token
        assert [s["sketches"] for s in after] == [{"test-sketch": token}] * 2

    def test_a_many_chunk_round_gives_every_slot_a_job(
        self, manager, workload, mode
    ):
        with SketchServer(manager, config_for(mode)) as server:
            serve_all(server, workload)  # 32 queries / 8 = 4 chunks, 2 slots
            assert [s["jobs"] for s in server.engine.executor.slots()] == [2, 2]

    def test_one_chunk_rounds_stay_on_the_slot_that_holds_the_sketch(
        self, manager, workload, mode
    ):
        with SketchServer(manager, config_for(mode)) as server:
            for start in range(0, 32, 4):  # eight rounds of one chunk
                serve_all(server, workload[start:start + 4])
            warm, idle = server.engine.executor.slots()
        assert (warm["jobs"], warm["installs"]) == (8, 1)
        assert idle == {"pid": None, "sketches": {}, "jobs": 0, "installs": 0}

    def test_two_sketches_taking_turns_settle_on_a_slot_each(
        self, manager, workload, mode
    ):
        manager.register_sketch(clone(manager.get_sketch("test-sketch"), "twin"))
        with SketchServer(manager, config_for(mode)) as server:
            for start in range(0, 32, 8):
                for name in ("test-sketch", "twin"):
                    serve_all(server, workload[start:start + 8], sketch=name)
            slots = server.engine.executor.slots()
        assert [sorted(s["sketches"]) for s in slots] == [
            ["test-sketch"], ["twin"],
        ]
        assert [(s["jobs"], s["installs"]) for s in slots] == [(4, 1), (4, 1)]

    def test_replicas_of_dropped_sketches_are_released(
        self, manager, workload, mode
    ):
        # Create / serve / drop is the demo's workflow: a dropped name
        # must leave every slot (and its segment must go) no later than
        # the next round, or the workers grow for ever.
        original = manager.get_sketch("test-sketch")
        with SketchServer(manager, config_for(mode)) as server:
            executor = server.engine.executor
            for generation in range(4):
                name = f"gen{generation}"
                manager.register_sketch(clone(original, name))
                serve_all(server, workload, sketch=name)
                manager.drop_sketch(name)
            serve_all(server, workload[:8], sketch="test-sketch")
            held = [sorted(slot["sketches"]) for slot in executor.slots()]
            assert held == [["test-sketch"], []]
            assert server.stats.n_executor_fallbacks == 0
            if mode == "process+shm":
                assert len(live_segment_names()) == 1


    def test_swaps_and_drops_under_live_load(self, manager, workload, mode):
        # More slots than cores, a client that never pauses, and the
        # manager changing underneath the rounds: every future resolves,
        # the only failures are structured ``route`` answers for the
        # name that is dropped, no worker dies, no response carries a
        # token retired by a completed swap, and the slots end up
        # holding live generations only.
        original = manager.get_sketch("test-sketch")
        manager.register_sketch(clone(original, "extra"))
        config = ServeConfig(
            **{**MODES[mode], "executor_workers": 3},
            max_batch_size=8, max_wait_ms=1.0, use_cache=False,
        )
        futures, observed = [], []
        stop = threading.Event()

        def observe(future):
            observed.append((future.result().token, time.monotonic()))

        def client(server):
            start = 0
            while not stop.is_set():
                batch = server.submit_many(
                    workload[start:start + 8], "test-sketch"
                ) + server.submit_many(workload[:4], "extra")
                for future in batch:
                    future.add_done_callback(observe)
                futures.extend(batch)
                start = (start + 8) % 24
                time.sleep(0.001)

        swaps = []  # (retired token, time its swap completed)
        with SketchServer(manager, config).start() as server:
            thread = threading.Thread(target=client, args=(server,))
            thread.start()
            try:
                for _ in range(4):
                    time.sleep(0.03)
                    live = manager.get_sketch("test-sketch")
                    retired = live.snapshot_token
                    server.engine.swap_sketch("test-sketch", clone(live))
                    swaps.append((retired, time.monotonic()))
                    manager.drop_sketch("extra")
                    time.sleep(0.01)
                    manager.register_sketch(clone(original, "extra"))
            finally:
                stop.set()
                thread.join(RESULT_TIMEOUT)
            assert not thread.is_alive()
            responses = [f.result(RESULT_TIMEOUT) for f in futures]
            # one round after the last change, so the release has run
            assert server.submit(workload[0], "test-sketch").result(
                RESULT_TIMEOUT
            ).ok
            slots = server.engine.executor.slots()
            fallbacks = server.stats.n_executor_fallbacks
        assert len(responses) > 100
        assert all(r.ok or r.code == CODE_ROUTE for r in responses)
        assert all(r.ok for r in responses if r.sketch == "test-sketch")
        assert fallbacks == 0
        for token, resolved_at in observed:
            for retired, swapped_at in swaps:
                assert not (token == retired and resolved_at > swapped_at)
        live = {
            name: manager.get_sketch(name).snapshot_token
            for name in manager.list_sketches()
        }
        for slot in slots:
            assert slot["sketches"].items() <= live.items()


class TestExecutorParity:
    def test_process_with_cache_and_duplicates(self, manager, workload):
        # Parent-side cache hits and duplicate collapsing around the
        # worker round-trip: duplicates answer identically and the
        # second flush is pure cache.
        stream = list(workload[:6]) * 3
        with SketchServer(
            manager,
            ServeConfig(executor="process", executor_workers=2, max_batch_size=6),
        ) as server:
            first = server.serve(stream)
            second = server.serve(stream)
            stats = server.stats
        assert all(r.ok for r in first + second)
        by_query = {}
        for r in first + second:
            by_query.setdefault(r.query, set()).add(r.estimate)
        assert all(len(v) == 1 for v in by_query.values())
        assert all(r.cached for r in second)
        assert stats.n_cache_hits > 0
        assert stats.n_executor_fallbacks == 0

    def test_async_process_executor(self, manager, workload, trained_sketch):
        sketch, _ = trained_sketch
        with SketchServer(manager, config_for("inline")) as server:
            inline = serve_all(server, workload)
        sketch.clear_cache()
        config = ServeConfig(
            executor="process", executor_workers=2, max_batch_size=8,
            max_wait_ms=20.0, use_cache=False,
        )
        with SketchServer(manager, config).start() as server:
            futures = server.submit_many(list(workload))
            responses = [f.result(RESULT_TIMEOUT) for f in futures]
        assert all(r.ok for r in responses)
        np.testing.assert_allclose(
            [r.estimate for r in responses], inline, rtol=PARITY_RTOL, atol=0.0
        )
        assert server.stats.n_executor_fallbacks == 0

    def test_one_flusher_at_a_time_on_process_slots(self, manager, workload):
        # Blocking batches answered on their callers' threads and the
        # loop's timed flushes share one process executor, whose slot
        # bookkeeping assumes a single caller: no two rounds overlap,
        # and every answer still matches the inline path.
        with SketchServer(manager, config_for("inline")) as server:
            inline = serve_all(server, workload)
        config = ServeConfig(
            executor="process", executor_workers=2, max_batch_size=8,
            max_wait_ms=1.0, use_cache=False,
        )
        answered = []  # (workload index, response)
        futures = []

        def batches(offset):
            for i in range(6):
                start = (offset + 4 * i) % 24
                responses = server.serve(workload[start:start + 8])
                answered.extend(zip(range(start, start + 8), responses))

        def singles():
            for i in range(len(workload)):
                futures.append((i, server.submit(workload[i])))
                time.sleep(0.001)

        with SketchServer(manager, config).start() as server:
            watched = WatchedExecutor(server.engine.executor, dwell=0.001)
            server.engine.executor = watched
            threads = [
                threading.Thread(target=fn, args=args, daemon=True)
                for fn, args in [(batches, (0,)), (batches, (2,)), (singles, ())]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(RESULT_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            answered.extend((i, f.result(RESULT_TIMEOUT)) for i, f in futures)
            stats = server.stats
        assert watched.peak == 1
        assert all(r.ok for _, r in answered)
        np.testing.assert_allclose(
            [r.estimate for _, r in answered],
            [inline[i] for i, _ in answered],
            rtol=PARITY_RTOL, atol=0.0,
        )
        assert stats.n_requests == stats.n_answered + stats.n_errors
        assert stats.n_executor_fallbacks == 0


class TestSnapshotShipping:
    def test_stale_snapshot_is_reshipped_after_clear_cache(
        self, manager, workload, trained_sketch
    ):
        # A retrain (modeled by an in-place weight change + clear_cache)
        # must reach the workers: the engine's answers through the pool
        # track the *current* weights, never the shipped generation.
        sketch, _ = trained_sketch
        config = ServeConfig(
            executor="process", executor_workers=2, max_batch_size=8,
            use_cache=False,
        )
        with SketchServer(manager, config) as server:
            before = [r.estimate for r in server.serve(workload[:8])]
            token_before = sketch.snapshot_token
            for p in sketch.model.params.values():
                p += 0.05  # optimizer-style in-place mutation
            sketch.clear_cache()
            assert sketch.snapshot_token != token_before
            after = [r.estimate for r in server.serve(workload[:8])]
            sketch.clear_cache()
            single = [sketch.estimate(q, use_cache=False) for q in workload[:8]]
        assert before != after
        np.testing.assert_allclose(after, single, rtol=PARITY_RTOL, atol=0.0)
        # Restore the shared fixture's weights.
        for p in sketch.model.params.values():
            p -= 0.05
        sketch.clear_cache()

    def test_snapshot_pickle_roundtrip_parity(self, trained_sketch, workload):
        sketch, _ = trained_sketch
        sketch.clear_cache()
        reference = sketch.estimate_many(list(workload[:10]), use_cache=False)
        blob = pickle.dumps(sketch.to_payload())
        replica = DeepSketch.replica(*pickle.loads(blob))
        values = replica.estimate_many(list(workload[:10]), use_cache=False)
        np.testing.assert_allclose(values, reference, rtol=PARITY_RTOL, atol=0.0)
        assert replica.model is None
        assert replica.tables == sketch.tables

    def test_estimation_only_sketch_cannot_serialize_or_recompile(
        self, trained_sketch
    ):
        from repro.errors import SketchError

        sketch, _ = trained_sketch
        replica = DeepSketch.replica(*pickle.loads(pickle.dumps(sketch.to_payload())))
        with pytest.raises(SketchError):
            replica.to_bytes()
        # clear_cache keeps the shipped session (nothing to recompile
        # from) — the replica still answers.
        replica.clear_cache()
        assert replica.inference_session is not None

    def test_snapshot_tokens_are_unique_and_monotonic(self, trained_sketch):
        sketch, _ = trained_sketch
        first = sketch.snapshot_token
        sketch.clear_cache()
        second = sketch.snapshot_token
        assert second > first
