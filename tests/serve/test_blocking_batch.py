"""A started server answers a blocking batch on the calling thread.

``serve`` and ``plan`` (and the front doors' ``estimate_batch`` and
``plan`` operations) hand the engine a complete batch whose caller is
already waiting, so they do not wait for the loop's timers: the calling
thread takes the engine's flush token and answers at once.  These tests
pin that on a server whose timers would hold a request for a minute,
then the one-flusher-at-a-time rule, the hot-swap barrier over a
caller's round, and the drain of an in-flight batch at close.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.sketch import DeepSketch
from repro.demo import SketchManager
from repro.errors import ProtocolError, RemoteServerError
from repro.serve import (
    CODE_INTERNAL,
    RemoteSketchServer,
    ServeConfig,
    SketchHTTPServer,
    SketchServer,
)
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator
from tests.helpers import WatchedExecutor

RTOL = 1e-12
#: A blocking call must return well inside this; the timers below would
#: hold it for a minute.
JOIN_TIMEOUT = 10.0
RESULT_TIMEOUT = 30.0

#: Only a close() (or a blocking batch) can flush under these timers.
HORIZON = ServeConfig(max_wait_ms=60_000.0, min_idle_ms=None, use_cache=False)

PLAN_SQL = (
    "SELECT COUNT(*) FROM title t,movie_keyword mk,movie_info mi "
    "WHERE mk.movie_id=t.id AND mi.movie_id=t.id AND t.production_year>2000;"
)


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
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=4242)
    return gen.draw_many(24)


def bounded(fn, *args, timeout=JOIN_TIMEOUT):
    """Run ``fn(*args)`` on a thread; fail unless it returns in time."""
    out, errors = [], []

    def target():
        try:
            out.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no answer within {timeout:g}s"
    if errors:
        raise errors[0]
    return out[0]


def estimates(responses) -> list[float]:
    assert all(r.ok for r in responses), [r.error for r in responses][:3]
    return [r.estimate for r in responses]


def only_forced(flushes: dict) -> None:
    """The blocking call's flush counts as forced, never as a timer's."""
    assert flushes["forced"] >= 1
    assert flushes["timed"] == 0 and flushes["idle"] == 0


def clone(sketch) -> DeepSketch:
    return DeepSketch.from_bytes(sketch.to_bytes())


class TestBatchesAnswerAtOnce:
    def test_serve_does_not_wait_for_the_timer(self, manager, workload):
        with SketchServer(manager, HORIZON) as server:
            reference = estimates(server.serve(workload))
        with SketchServer(manager, HORIZON).start() as server:
            served = estimates(bounded(server.serve, workload))
            flushes = server.stats_summary()["flushes"]
        np.testing.assert_allclose(served, reference, rtol=RTOL, atol=0.0)
        only_forced(flushes)

    def test_plan_does_not_wait_for_the_timer(self, manager):
        with SketchServer(manager, HORIZON) as server:
            reference = server.plan(PLAN_SQL)
        with SketchServer(manager, HORIZON).start() as server:
            response = bounded(server.plan, PLAN_SQL)
            flushes = server.stats_summary()["flushes"]
        assert reference.ok and response.ok and not response.degraded
        assert str(response.plan) == str(reference.plan)
        np.testing.assert_allclose(
            [s.estimate for s in response.subplans],
            [s.estimate for s in reference.subplans],
            rtol=RTOL, atol=0.0,
        )
        only_forced(flushes)

    def test_a_single_submit_still_waits_for_its_timer(
        self, manager, workload
    ):
        server = SketchServer(manager, HORIZON).start()
        try:
            future = server.submit(workload[0])
            time.sleep(0.05)
            assert not future.done()
        finally:
            server.close()
        assert future.result(RESULT_TIMEOUT).ok
        assert server.stats.n_flushes_drain == 1

    def test_a_batch_takes_along_what_is_buffered(self, manager, workload):
        with SketchServer(manager, HORIZON).start() as server:
            waiting = server.submit(workload[0])
            responses = bounded(server.serve, workload[1:4])
            assert waiting.done() and waiting.result().ok
            assert all(r.ok for r in responses)
            # one forced round answered both callers' requests
            assert server.stats.n_flushes == server.stats.n_flushes_forced == 1

    def test_a_submit_during_serve_stays_for_the_next_flush(
        self, manager, workload
    ):
        # Caller-driven: serve's round takes only what was buffered when
        # it began, so a submit that lands inside the round stays pending
        # and the next flush() answers and returns it.
        later = next(q for q in workload[3:] if q not in workload[:3])
        with SketchServer(manager, HORIZON) as server:
            watched = WatchedExecutor(server.engine.executor, hold=True)
            server.engine.executor = watched
            thread = threading.Thread(target=server.serve, args=(workload[:3],))
            thread.start()
            assert watched.entered.wait(JOIN_TIMEOUT)
            late = server.submit(later)
            watched.gate.set()
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
            assert not late.done()
            flushed = server.flush()
        assert len(flushed) == 1 and flushed[0] is late.result()
        assert flushed[0].ok


class TestOverTheWire:
    def test_json_batch_and_binary_plan_answer_at_once(
        self, manager, workload
    ):
        with SketchServer(manager, HORIZON) as server:
            reference = estimates(server.serve(workload))
            reference_plan = server.plan(PLAN_SQL)
        with SketchHTTPServer(manager, HORIZON, port=0) as door:
            with RemoteSketchServer(
                door.url, transport="json", timeout=RESULT_TIMEOUT
            ) as client:
                served = estimates(bounded(client.estimate_many, workload))
            with RemoteSketchServer(
                door.url, transport="binary", timeout=RESULT_TIMEOUT
            ) as client:
                plan = bounded(client.plan, PLAN_SQL)
                assert client.active_transport == "binary"
            flushes = door.stats_summary()["flushes"]
        np.testing.assert_allclose(served, reference, rtol=RTOL, atol=0.0)
        assert plan.ok and str(plan.plan) == str(reference_plan.plan)
        np.testing.assert_allclose(
            [s.estimate for s in plan.subplans],
            [s.estimate for s in reference_plan.subplans],
            rtol=RTOL, atol=0.0,
        )
        only_forced(flushes)


class TestOneFlusherAtATime:
    def test_callers_and_the_loop_never_overlap(self, manager, workload):
        # Live timers (1 ms) so the loop flushes submits while callers
        # flush their batches; the executor dwells to widen any overlap.
        config = ServeConfig(max_batch_size=8, max_wait_ms=1.0, use_cache=False)
        futures, failures = [], []
        with SketchServer(manager, config).start() as server:
            watched = WatchedExecutor(server.engine.executor, dwell=0.001)
            server.engine.executor = watched

            def batches(offset):
                for i in range(12):
                    start = (offset + 3 * i) % 18
                    responses = server.serve(workload[start:start + 6])
                    if not all(r.ok for r in responses):
                        failures.append(responses)

            def plans():
                for _ in range(4):
                    response = server.plan(PLAN_SQL)
                    if not (response.ok and not response.degraded):
                        failures.append(response)

            def singles(offset):
                for i in range(30):
                    futures.append(
                        server.submit(workload[(offset + i) % len(workload)])
                    )
                    time.sleep(0.001)

            threads = [
                threading.Thread(target=fn, args=args, daemon=True)
                for fn, args in [
                    (batches, (0,)), (batches, (7,)), (plans, ()),
                    (singles, (0,)), (singles, (11,)),
                ]
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more thread switches per round
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(RESULT_TIMEOUT)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            responses = [f.result(RESULT_TIMEOUT) for f in futures]
        stats = server.stats
        assert not failures
        assert all(r.ok for r in responses)
        assert watched.peak == 1
        assert watched.runs > 10
        assert stats.n_requests == stats.n_answered + stats.n_errors
        assert stats.n_errors == 0

    def test_an_executor_fault_releases_the_token(self, manager, workload):
        with SketchServer(manager, HORIZON).start() as server:
            server.engine.executor = WatchedExecutor(
                server.engine.executor, fail_once=True
            )
            failed = bounded(server.serve, workload[:4])
            answered = bounded(server.serve, workload[4:8])
        assert [r.code for r in failed] == [CODE_INTERNAL] * 4
        assert all(r.ok for r in answered)
        stats = server.stats
        assert stats.n_requests == stats.n_answered + stats.n_errors
        assert stats.n_errors == 4


class TestBarrierAndDrain:
    def test_swap_waits_for_a_callers_round(self, manager, workload):
        server = SketchServer(manager, HORIZON).start()
        watched = WatchedExecutor(server.engine.executor, hold=True)
        server.engine.executor = watched
        retired = manager.get_sketch("test-sketch").snapshot_token
        replacement = clone(manager.get_sketch("test-sketch"))
        held: list = []
        try:
            caller = threading.Thread(
                target=lambda: held.extend(server.serve(workload[:6])),
                daemon=True,
            )
            caller.start()
            assert watched.entered.wait(RESULT_TIMEOUT)
            swapper = threading.Thread(
                target=server.engine.swap_sketch,
                args=("test-sketch", replacement),
                daemon=True,
            )
            swapper.start()
            swapper.join(0.2)
            assert swapper.is_alive()  # the barrier waits for the round
            watched.gate.set()
            swapper.join(RESULT_TIMEOUT)
            caller.join(RESULT_TIMEOUT)
            assert not swapper.is_alive() and not caller.is_alive()
            after = bounded(server.serve, workload[6:10])
        finally:
            watched.gate.set()
            server.close()
        assert len(held) == 6 and all(r.ok for r in held)
        assert all(r.ok for r in after)
        assert all(r.token != retired for r in after)
        assert all(r.token == replacement.snapshot_token for r in after)

    def test_close_answers_an_inflight_batch(self, manager, workload):
        # The batch counterpart of test_http's in-flight single
        # estimates at close(): the round is held inside the executor
        # while close() runs, and still answers.
        door = SketchHTTPServer(manager, HORIZON, port=0).start()
        watched = WatchedExecutor(door.service.engine.executor, hold=True)
        door.service.engine.executor = watched
        answers: list = []

        def call():
            with RemoteSketchServer(
                door.url, transport="json", timeout=RESULT_TIMEOUT
            ) as client:
                answers.extend(client.estimate_many(workload[:6]))

        client = threading.Thread(target=call, daemon=True)
        client.start()
        try:
            assert watched.entered.wait(RESULT_TIMEOUT)
            closer = threading.Thread(target=door.close, daemon=True)
            closer.start()
            closer.join(0.2)
            assert closer.is_alive()  # the drain waits for the round
        finally:
            watched.gate.set()
        closer.join(RESULT_TIMEOUT)
        client.join(RESULT_TIMEOUT)
        assert not closer.is_alive() and not client.is_alive()
        assert len(answers) == 6 and all(r.ok for r in answers)
        stats = door.stats_summary()
        assert stats["requests"] == stats["answered"] == 6
        late = RemoteSketchServer(door.url, timeout=2.0)
        with pytest.raises((RemoteServerError, ProtocolError)):
            late.estimate_many(workload[:2])
        late.close()
