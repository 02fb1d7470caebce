"""LifecycleManager + hot-swap barrier: the PR 8 tentpole contract.

Covered here:

* ``EstimationEngine.swap_sketch`` — atomic install, barrier-gated
  retirement, per-response snapshot-token stamping;
* drift-triggered shadow refresh through ``run_once`` with injectable
  ``drift_fn``/``refresh_fn`` fakes (no training in the fast tests);
* fault injection — shadow-train failure, corrupt registry entry, swap
  racing ``drop_sketch`` — each degrading to a structured code with the
  previous version still serving, never a hang;
* registry rollback end to end (pinned version restored into the live
  engine);
* the satellite hot-swap-under-concurrent-load audit: a TrafficShaper
  replay while swaps and a rollback fire, gated on zero hung futures,
  structured codes only, and no response answered by a retired snapshot
  version after its swap completed.
"""

import threading
import time

import pytest

from repro.core import DeepSketch, DriftReport, RefreshResult
from repro.demo import SketchManager
from repro.errors import RegistryError, SketchError
from repro.serve import lifecycle as lifecycle_module
from repro.serve import (
    LifecycleConfig,
    LifecycleManager,
    ServeConfig,
    SketchRegistry,
    SketchServer,
    healthz_payload,
)
from repro.workload import (
    SuiteConfig,
    TrafficConfig,
    TrafficShaper,
    generate_template_suite,
    spec_for_imdb,
)
from repro.workload.generator import TrainingQueryGenerator

RESULT_TIMEOUT = 30.0
SQL = "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;"


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


def _clone(sketch) -> DeepSketch:
    """An independent same-name replacement with its own snapshot token."""
    return DeepSketch.from_bytes(sketch.to_bytes())


def _stale_drift(sketch, db, seed=None):
    return DriftReport(table_drift={"title": 0.9}, threshold=0.15)


def _fresh_drift(sketch, db, seed=None):
    return DriftReport(table_drift={"title": 0.0}, threshold=0.15)


def _refresh_returning(result):
    def refresh(sketch, db, spec, n_queries=0, epochs=0, seed=None):
        refresh.calls += 1
        return result() if callable(result) else result

    refresh.calls = 0
    return refresh


class TestSwapSketch:
    """The engine-level hot-swap primitive."""

    def test_swap_installs_replacement_and_retires_old(self, manager, workload):
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)
        with SketchServer(manager) as server:
            server.serve(workload[:2])
            old_token = original.snapshot_token
            retired = server.engine.swap_sketch("test-sketch", replacement)
            assert retired is original
            # Retirement bumped the old token: no later response can be
            # stamped with it, and its result cache is gone.
            assert retired.snapshot_token != old_token
            assert manager.get_sketch("test-sketch") is replacement
            (response,) = server.serve(workload[2:3])
            assert response.ok
            assert response.token == replacement.snapshot_token

    def test_swap_telemetry(self, manager):
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)
        replacement.metadata["registry_version"] = 7
        old_token = original.snapshot_token
        with SketchServer(manager) as server:
            server.engine.swap_sketch("test-sketch", replacement)
            stats = server.stats_summary()
        assert stats["swaps"] == 1
        last = stats["last_swap"]
        assert last["sketch"] == "test-sketch"
        assert last["old_token"] == old_token
        assert last["new_token"] == replacement.snapshot_token
        assert last["registry_version"] == 7
        assert last["at"] > 0
        assert stats["versions"]["test-sketch"] == {
            "token": replacement.snapshot_token,
            "registry_version": 7,
        }

    def test_swap_unknown_name_leaves_serving_untouched(self, manager, workload):
        original = manager.get_sketch("test-sketch")
        with SketchServer(manager) as server:
            with pytest.raises(SketchError, match="no sketch named"):
                server.engine.swap_sketch("ghost", _clone(original))
            assert manager.get_sketch("test-sketch") is original
            assert server.serve(workload[:1])[0].ok

    def test_swap_name_mismatch_rejected(self, manager, workload):
        original = manager.get_sketch("test-sketch")
        impostor = _clone(original)
        impostor.name = "impostor"
        with SketchServer(manager) as server:
            with pytest.raises(SketchError, match="named 'impostor'"):
                server.engine.swap_sketch("test-sketch", impostor)
            assert manager.get_sketch("test-sketch") is original
            assert server.serve(workload[:1])[0].ok

    def test_swap_after_close_raises(self, manager):
        original = manager.get_sketch("test-sketch")
        server = SketchServer(manager)
        server.close()
        with pytest.raises(SketchError, match="closed"):
            server.engine.swap_sketch("test-sketch", _clone(original))


class TestResponseTokens:
    """Every served answer is stamped with its snapshot version."""

    def test_ok_responses_carry_the_serving_token(self, manager, workload):
        token = manager.get_sketch("test-sketch").snapshot_token
        with SketchServer(manager) as server:
            responses = server.serve(workload[:3])
        assert all(r.ok for r in responses)
        assert all(r.token == token for r in responses)

    def test_cached_hits_carry_the_current_token(self, manager, workload):
        token = manager.get_sketch("test-sketch").snapshot_token
        with SketchServer(manager) as server:
            server.serve(workload[:1])
            (cached,) = server.serve(workload[:1])
        assert cached.cached
        assert cached.token == token

    def test_error_responses_carry_no_token(self, manager):
        with SketchServer(manager) as server:
            (parse,) = server.serve(["SELECT nonsense;"])
            (route,) = server.serve(["SELECT COUNT(*) FROM keyword k;"])
        assert parse.token is None
        assert route.token is None


class TestLifecyclePasses:
    """run_once with injected drift/refresh: the state machine itself."""

    def _lifecycle(self, server, imdb_small, **kwargs):
        kwargs.setdefault("config", LifecycleConfig(check_interval_s=0.01))
        return LifecycleManager(
            server, imdb_small, {"test-sketch": spec_for_imdb()}, **kwargs
        )

    def test_no_drift_stays_idle(self, manager, imdb_small):
        refresh = _refresh_returning(RefreshResult(ok=True))
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server, imdb_small, drift_fn=_fresh_drift, refresh_fn=refresh
            )
            assert lifecycle.run_once() == {"test-sketch": "idle"}
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["last_drift"] == 0.0
        assert state["refreshes"] == 0
        assert refresh.calls == 0

    def test_drift_triggers_shadow_refresh_and_swap(self, manager, imdb_small):
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)
        refresh = _refresh_returning(RefreshResult(ok=True, sketch=replacement))
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server, imdb_small, drift_fn=_stale_drift, refresh_fn=refresh
            )
            assert lifecycle.run_once() == {"test-sketch": "idle"}
            assert manager.get_sketch("test-sketch") is replacement
            assert server.stats_summary()["swaps"] == 1
        assert refresh.calls == 1
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["refreshes"] == 1
        assert state["failures"] == 0
        assert state["last_refresh_at"] is not None

    def test_refresh_publishes_to_the_registry(
        self, manager, imdb_small, tmp_path
    ):
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)
        registry = SketchRegistry(tmp_path / "reg")
        refresh = _refresh_returning(RefreshResult(ok=True, sketch=replacement))
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                registry=registry,
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            lifecycle.run_once()
            stats = server.stats_summary()
        assert registry.describe()["test-sketch"]["active"] == 1
        assert stats["last_swap"]["registry_version"] == 1
        assert stats["versions"]["test-sketch"]["registry_version"] == 1

    def test_refresh_failure_backs_off_and_keeps_serving(
        self, manager, imdb_small, monkeypatch
    ):
        monkeypatch.setattr(lifecycle_module, "BACKOFF_S", 30.0)
        original = manager.get_sketch("test-sketch")
        token = original.snapshot_token
        refresh = _refresh_returning(
            RefreshResult(
                ok=False,
                error="only 3 non-empty fine-tuning queries",
                code="insufficient_queries",
            )
        )
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                config=LifecycleConfig(check_interval_s=0.01),
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            # The previous version never stopped serving.
            assert manager.get_sketch("test-sketch") is original
            assert original.snapshot_token == token
            # Backing off: the next pass skips the sketch entirely.
            assert lifecycle.run_once() == {"test-sketch": "failed"}
        assert refresh.calls == 1
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["failures"] == 1
        assert state["last_code"] == "insufficient_queries"
        assert "non-empty" in state["last_error"]
        assert state["next_attempt_at"] is not None

    def test_backoff_doubles_per_consecutive_failure(
        self, manager, imdb_small, monkeypatch
    ):
        monkeypatch.setattr(lifecycle_module, "BACKOFF_S", 1.0)
        monkeypatch.setattr(lifecycle_module, "BACKOFF_CAP_S", 60.0)
        monkeypatch.setattr(lifecycle_module, "MAX_RETRIES", 10)
        refresh = _refresh_returning(
            RefreshResult(ok=False, error="x", code="internal")
        )
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                config=LifecycleConfig(check_interval_s=0.01),
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            state = lifecycle._states["test-sketch"]
            lifecycle.run_once()
            first_wait = state.next_attempt_at - time.monotonic()
            assert 0.5 < first_wait <= 1.0
            state.next_attempt_at = 0.0  # force the retry immediately
            lifecycle.run_once()
            second_wait = state.next_attempt_at - time.monotonic()
            assert 1.5 < second_wait <= 2.0
            assert state.failures == 2

    def test_non_retryable_code_parks_until_reset(self, manager, imdb_small):
        drift_calls = []

        def counting_drift(sketch, db, seed=None):
            drift_calls.append(1)
            return _stale_drift(sketch, db)

        refresh = _refresh_returning(
            RefreshResult(
                ok=False,
                error="spec tables differ",
                code="spec_mismatch",
            )
        )
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                drift_fn=counting_drift,
                refresh_fn=refresh,
            )
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            state = lifecycle.state()["sketches"]["test-sketch"]
            assert state["next_attempt_at"] is None  # parked, not backing off
            checks_before = len(drift_calls)
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            assert len(drift_calls) == checks_before  # parked = not checked
            lifecycle.reset("test-sketch")
            lifecycle.run_once()
            assert len(drift_calls) == checks_before + 1

    def test_retries_exhausted_parks(self, manager, imdb_small, monkeypatch):
        monkeypatch.setattr(lifecycle_module, "BACKOFF_S", 0.001)
        monkeypatch.setattr(lifecycle_module, "MAX_RETRIES", 1)
        refresh = _refresh_returning(
            RefreshResult(ok=False, error="x", code="internal")
        )
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                config=LifecycleConfig(check_interval_s=0.01),
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            lifecycle.run_once()
            time.sleep(0.01)
            lifecycle.run_once()
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["failures"] == 2
        assert state["next_attempt_at"] is None
        assert refresh.calls == 2

    def test_drift_check_crash_is_structured(self, manager, imdb_small):
        original = manager.get_sketch("test-sketch")

        def exploding_drift(sketch, db, seed=None):
            raise RuntimeError("table renamed mid-migration")

        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server, imdb_small, drift_fn=exploding_drift
            )
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            assert manager.get_sketch("test-sketch") is original
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["last_code"] == "drift_check_failed"
        assert "table renamed" in state["last_error"]

    def test_missing_sketch_is_structured(self, manager, imdb_small):
        with SketchServer(manager) as server:
            lifecycle = LifecycleManager(
                server,
                imdb_small,
                {"ghost": spec_for_imdb()},
                config=LifecycleConfig(check_interval_s=0.01),
            )
            assert lifecycle.run_once() == {"ghost": "failed"}
        assert (
            lifecycle.state()["sketches"]["ghost"]["last_code"]
            == "missing_sketch"
        )

    def test_registry_save_failure_keeps_old_serving(self, manager, imdb_small):
        original = manager.get_sketch("test-sketch")
        token = original.snapshot_token

        class BrokenRegistry:
            def save(self, sketch, note="", activate=True):
                raise RegistryError("disk full")

        refresh = _refresh_returning(
            RefreshResult(ok=True, sketch=_clone(original))
        )
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                registry=BrokenRegistry(),
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            # An unpublishable replacement is never swapped in: doing so
            # would fork this node's version away from the fleet.
            assert manager.get_sketch("test-sketch") is original
            assert original.snapshot_token == token
            assert server.stats_summary()["swaps"] == 0
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["last_code"] == "registry_save_failed"
        assert "disk full" in state["last_error"]

    def test_swap_racing_drop_is_structured(self, manager, imdb_small):
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)

        def dropping_refresh(sketch, db, spec, n_queries=0, epochs=0, seed=None):
            # The operator drops the sketch while the shadow train runs:
            # the subsequent swap must fail structurally, not crash the
            # watcher or install a sketch nobody routes to.
            manager.drop_sketch("test-sketch")
            return RefreshResult(ok=True, sketch=replacement)

        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server,
                imdb_small,
                drift_fn=_stale_drift,
                refresh_fn=dropping_refresh,
            )
            assert lifecycle.run_once() == {"test-sketch": "failed"}
            assert server.stats_summary()["swaps"] == 0
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["last_code"] == "swap_failed"
        # Re-register so the fixture's teardown finds a coherent manager.
        manager.register_sketch(original)

    def test_state_surfaces_through_stats_and_healthz(self, manager, imdb_small):
        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server, imdb_small, drift_fn=_fresh_drift
            )
            lifecycle.run_once()
            stats = server.stats_summary()
            health = healthz_payload(server)
        state = lifecycle.state()
        assert set(state) == {
            "running", "check_interval_s", "rollbacks", "sketches",
        }
        assert set(state["sketches"]["test-sketch"]) == {
            "phase", "last_drift", "last_check_at", "failures",
            "last_error", "last_code", "next_attempt_at", "refreshes",
            "last_refresh_at",
        }
        assert stats["lifecycle"]["sketches"]["test-sketch"]["phase"] == "idle"
        assert health["lifecycle"]["rollbacks"] == 0
        assert health["versions"]["test-sketch"]["token"] is not None

    def test_watcher_thread_runs_and_stops(self, manager, imdb_small):
        checked = threading.Event()

        def signalling_drift(sketch, db, seed=None):
            checked.set()
            return _fresh_drift(sketch, db)

        with SketchServer(manager) as server:
            lifecycle = self._lifecycle(
                server, imdb_small, drift_fn=signalling_drift
            )
            lifecycle.start()
            lifecycle.start()  # idempotent
            assert lifecycle.running
            assert checked.wait(RESULT_TIMEOUT)
            lifecycle.stop()
            assert not lifecycle.running


class TestRollback:
    def _registry_with_versions(self, tmp_path, original, n=2):
        registry = SketchRegistry(tmp_path / "reg")
        for i in range(n):
            registry.save(_clone(original), note=f"v{i + 1}")
        return registry

    def test_rollback_restores_pinned_version_end_to_end(
        self, manager, imdb_small, tmp_path, workload
    ):
        original = manager.get_sketch("test-sketch")
        registry = self._registry_with_versions(tmp_path, original, n=3)
        registry.pin("test-sketch", 1)
        with SketchServer(manager) as server:
            lifecycle = LifecycleManager(
                server,
                imdb_small,
                {"test-sketch": spec_for_imdb()},
                registry=registry,
                config=LifecycleConfig(check_interval_s=0.01),
            )
            assert lifecycle.rollback("test-sketch") == 1
            stats = server.stats_summary()
            (response,) = server.serve(workload[:1])
        assert response.ok
        assert stats["versions"]["test-sketch"]["registry_version"] == 1
        assert registry.active_version("test-sketch") == 1
        assert lifecycle.state()["rollbacks"] == 1
        assert stats["lifecycle"]["rollbacks"] == 1

    def test_rollback_clears_a_parked_failure(self, manager, imdb_small, tmp_path):
        original = manager.get_sketch("test-sketch")
        registry = self._registry_with_versions(tmp_path, original)
        refresh = _refresh_returning(
            RefreshResult(ok=False, error="bad", code="spec_mismatch")
        )
        with SketchServer(manager) as server:
            lifecycle = LifecycleManager(
                server,
                imdb_small,
                {"test-sketch": spec_for_imdb()},
                registry=registry,
                config=LifecycleConfig(check_interval_s=0.01),
                drift_fn=_stale_drift,
                refresh_fn=refresh,
            )
            lifecycle.run_once()
            assert (
                lifecycle.state()["sketches"]["test-sketch"]["phase"]
                == "failed"
            )
            lifecycle.rollback("test-sketch")
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["phase"] == "idle"
        assert state["failures"] == 0

    def test_rollback_to_corrupt_blob_leaves_engine_untouched(
        self, manager, imdb_small, tmp_path
    ):
        original = manager.get_sketch("test-sketch")
        token = original.snapshot_token
        registry = self._registry_with_versions(tmp_path, original)
        registry.pin("test-sketch", 1)
        blob = registry.root / registry.versions("test-sketch")[1]["path"]
        blob.write_bytes(b"\x00" * 32)
        with SketchServer(manager) as server:
            lifecycle = LifecycleManager(
                server,
                imdb_small,
                {"test-sketch": spec_for_imdb()},
                registry=registry,
                config=LifecycleConfig(check_interval_s=0.01),
            )
            with pytest.raises(RegistryError, match="checksum"):
                lifecycle.rollback("test-sketch")
            # The engine never saw the corrupt payload: same object, same
            # token, zero swaps.
            assert manager.get_sketch("test-sketch") is original
            assert original.snapshot_token == token
            assert server.stats_summary()["swaps"] == 0
        state = lifecycle.state()["sketches"]["test-sketch"]
        assert state["last_code"] == "rollback_failed"

    def test_rollback_without_registry_raises(self, manager, imdb_small):
        with SketchServer(manager) as server:
            lifecycle = LifecycleManager(
                server,
                imdb_small,
                {"test-sketch": spec_for_imdb()},
                config=LifecycleConfig(check_interval_s=0.01),
            )
            with pytest.raises(RegistryError, match="no registry"):
                lifecycle.rollback("test-sketch")


class TestSwapUnderConcurrentLoad:
    """Satellite: swaps + a rollback racing live open-loop traffic."""

    @pytest.fixture(scope="class")
    def suite(self, imdb_small):
        return generate_template_suite(
            imdb_small,
            spec_for_imdb(),
            SuiteConfig(n_templates=4, queries_per_template=8, max_joins=2),
            seed=11,
        )

    def test_zero_drop_zero_stale_audit(
        self, manager, imdb_small, tmp_path, suite
    ):
        original = manager.get_sketch("test-sketch")
        registry = SketchRegistry(tmp_path / "reg")
        registry.save(_clone(original), note="v1")
        registry.save(_clone(original), note="v2")

        lock = threading.Lock()
        observed: list[tuple[bool, str | None, int | None, float]] = []

        def on_response(response, resolved_at):
            with lock:
                observed.append(
                    (response.ok, response.code, response.token, resolved_at)
                )

        shaper = TrafficShaper(
            suite,
            TrafficConfig(
                n_requests=240,
                rate_qps=1500.0,
                burst_on_s=0.02,
                burst_off_s=0.02,
                timeout_s=RESULT_TIMEOUT,
            ),
            seed=5,
        )
        server = SketchServer(
            manager, ServeConfig(max_batch_size=32)
        ).start()
        lifecycle = LifecycleManager(
            server,
            imdb_small,
            {"test-sketch": spec_for_imdb()},
            registry=registry,
            config=LifecycleConfig(check_interval_s=60.0),
        )
        replay_box: dict = {}

        def replay_body():
            replay_box["result"] = shaper.replay(
                server, on_response=on_response
            )

        thread = threading.Thread(target=replay_body)
        swaps: list[dict] = []  # {old_token, new_token, done_at}
        try:
            thread.start()
            # Two direct hot swaps and one registry rollback fire while
            # the replay is in flight.
            for _ in range(2):
                time.sleep(0.04)
                replacement = _clone(original)
                old_token = manager.get_sketch("test-sketch").snapshot_token
                server.engine.swap_sketch("test-sketch", replacement)
                swaps.append(
                    {
                        "old_token": old_token,
                        "new_token": replacement.snapshot_token,
                        "done_at": time.monotonic(),
                    }
                )
            time.sleep(0.04)
            old_token = manager.get_sketch("test-sketch").snapshot_token
            lifecycle.rollback("test-sketch")
            swaps.append(
                {
                    "old_token": old_token,
                    "new_token": manager.get_sketch(
                        "test-sketch"
                    ).snapshot_token,
                    "done_at": time.monotonic(),
                }
            )
            thread.join(RESULT_TIMEOUT * 2)
            assert not thread.is_alive()
        finally:
            server.close()
        replay = replay_box["result"]

        # -- the degradation audit ------------------------------------
        assert replay.zero_hung, replay.audit()
        assert replay.structured_only, replay.audit()
        assert replay.n_ok + replay.n_failed == replay.n_requests
        assert replay.n_ok > 0
        assert server.stats_summary()["swaps"] == 3

        # -- per-response snapshot-version accounting -----------------
        # Exactly one version answered each request, and no response
        # stamped with a retired token resolved after that version's
        # swap completed (the barrier guarantee).
        valid_tokens = {original.snapshot_token}
        valid_tokens.update(s["old_token"] for s in swaps)
        valid_tokens.update(s["new_token"] for s in swaps)
        late_retired = 0
        for ok, _code, token, resolved_at in observed:
            if not ok:
                continue
            assert token in valid_tokens
            for swap in swaps:
                if token == swap["old_token"] and resolved_at > swap["done_at"]:
                    late_retired += 1
        assert late_retired == 0

    def test_process_executor_never_mixes_versions(self, manager, workload):
        # The process pool serves shipped weight replicas; a swap must
        # re-ship before the next batch so no batch mixes versions.
        original = manager.get_sketch("test-sketch")
        replacement = _clone(original)
        config = ServeConfig(
            executor="process", executor_workers=2, use_cache=False,
        )
        with SketchServer(manager, config) as server:
            before = server.serve(workload[:4])
            server.engine.swap_sketch("test-sketch", replacement)
            after = server.serve(workload[4:8])
        assert all(r.ok for r in before + after)
        before_tokens = {r.token for r in before}
        after_tokens = {r.token for r in after}
        assert after_tokens == {replacement.snapshot_token}
        assert before_tokens.isdisjoint(after_tokens)
