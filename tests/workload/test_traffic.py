"""TrafficShaper: schedule shape + open-loop replay audits.

The replay tests drive real services — the async engine under
admission limits and a gateway over live HTTP backends — and assert
the serving tier's degradation contract: zero hung futures, failures
only as structured codes, queue bounds held.
"""

import numpy as np
import pytest

from repro.demo import SketchManager
from repro.errors import ReproError
from repro.serve import ServeConfig, SketchServer
from repro.serve.engine import RESPONSE_CODES
from repro.workload import (
    SuiteConfig,
    TrafficConfig,
    TrafficShaper,
    generate_template_suite,
    spec_for_imdb,
)

#: time_scale=0 submits the whole schedule as fast as possible — an
#: instantaneous burst, the worst case for admission control.
FAST = dict(time_scale=0.0, timeout_s=60.0)


@pytest.fixture(scope="module")
def suite(request):
    # Over the JOB-light spec so the trained test sketch covers every
    # instance (keyword/company tables would route-error instead).
    imdb = request.getfixturevalue("imdb_small")
    config = SuiteConfig(n_templates=6, queries_per_template=8, max_joins=2)
    return generate_template_suite(
        imdb, spec_for_imdb(max_joins=2), config, seed=8
    )


@pytest.fixture()
def manager(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    yield manager
    sketch.clear_cache()


class TestSchedule:
    def test_deterministic_given_seed(self, suite):
        config = TrafficConfig(n_requests=64)
        a = TrafficShaper(suite, config, seed=5).schedule()
        b = TrafficShaper(suite, config, seed=5).schedule()
        assert a == b

    def test_different_seeds_differ(self, suite):
        config = TrafficConfig(n_requests=64)
        a = TrafficShaper(suite, config, seed=5).schedule()
        b = TrafficShaper(suite, config, seed=6).schedule()
        assert a != b

    def test_arrival_times_monotonic(self, suite):
        schedule = TrafficShaper(suite, TrafficConfig(n_requests=64), seed=1).schedule()
        times = [r.at_s for r in schedule]
        assert times == sorted(times)
        assert times[0] > 0

    def test_off_windows_spliced_in(self, suite):
        # With bursts ON the span must stretch by the OFF windows: the
        # same arrivals without bursts end sooner.
        on = TrafficConfig(
            n_requests=256, rate_qps=2000.0, burst_on_s=0.01, burst_off_s=0.1
        )
        off = TrafficConfig(
            n_requests=256, rate_qps=2000.0, burst_on_s=0.01, burst_off_s=0.0
        )
        with_bursts = TrafficShaper(suite, on, seed=2).schedule()
        without = TrafficShaper(suite, off, seed=2).schedule()
        assert with_bursts[-1].at_s > without[-1].at_s * 2

    def test_zipf_mix_is_skewed(self, suite):
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=400, zipf_s=1.5), seed=3
        )
        schedule = shaper.schedule()
        counts = {}
        for request in schedule:
            counts[request.template] = counts.get(request.template, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] >= 3 * ranked[-1]

    def test_zipf_zero_is_roughly_uniform(self, suite):
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=600, zipf_s=0.0), seed=3
        )
        counts = {}
        for request in shaper.schedule():
            counts[request.template] = counts.get(request.template, 0) + 1
        assert len(counts) == len(suite)
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] < 2 * ranked[-1]

    def test_instances_come_from_named_template(self, suite):
        shaper = TrafficShaper(suite, TrafficConfig(n_requests=128), seed=4)
        for request in shaper.schedule():
            assert request.query in suite.template(request.template).queries

    def test_weights_cover_all_templates(self, suite):
        weights = TrafficShaper(suite, seed=0).template_weights()
        assert set(weights) == set(suite.names)
        assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_empty_suite_rejected(self, suite):
        from repro.workload import TemplateSuite

        with pytest.raises(ReproError, match="empty suite"):
            TrafficShaper(TemplateSuite(templates=()))

    def test_config_validation(self):
        with pytest.raises(ReproError):
            TrafficConfig(n_requests=0)
        with pytest.raises(ReproError):
            TrafficConfig(rate_qps=0)
        with pytest.raises(ReproError):
            TrafficConfig(time_scale=-1)


class TestReplayAsyncServer:
    def test_unbounded_replay_serves_everything(self, manager, suite):
        config = ServeConfig(max_batch_size=16, max_wait_ms=2.0)
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=80, **FAST), seed=11
        )
        with SketchServer(manager, config).start() as server:
            result = shaper.replay(server)
        assert result.ok
        assert result.n_ok == result.n_requests == 80
        assert result.n_failed == 0
        assert sum(result.per_template.values()) == 80

    def test_admission_limited_burst_sheds_structured(self, manager, suite):
        # An instantaneous burst of 200 against a queue bounded at 8,
        # with the flush deadline beyond the horizon: the overflow MUST
        # shed at submit time, every future resolves, the engine's
        # intake high-water mark never exceeds the bound.
        config = ServeConfig(
            max_batch_size=8,
            max_wait_ms=600_000.0,
            min_idle_ms=None,
            use_cache=False,
            max_queue_depth=8,
        )
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=200, **FAST), seed=12
        )
        server = SketchServer(manager, config).start()
        try:
            result = shaper.replay(server)
        finally:
            depth_peak = int(server.stats_summary()["queue_depth_peak"])
            server.close()
        assert result.zero_hung
        assert result.structured_only
        assert result.n_ok + result.n_failed == 200
        assert result.code_counts.get("shed", 0) > 0
        assert set(result.code_counts) <= set(RESPONSE_CODES)
        assert depth_peak <= 8

    def test_deadline_failures_are_structured(self, manager, suite):
        # A deadline far below the flush wait expires requests in the
        # queue; the failure must surface as code="deadline", never as
        # an exception or an unresolved future.
        config = ServeConfig(
            max_batch_size=4,
            max_wait_ms=150.0,
            min_idle_ms=None,
            use_cache=False,
            deadline_ms=0.000001,
        )
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=40, **FAST), seed=13
        )
        with SketchServer(manager, config).start() as server:
            result = shaper.replay(server)
        assert result.zero_hung
        assert result.structured_only
        assert result.code_counts.get("deadline", 0) > 0


class TestReplayGateway:
    def test_gateway_replay_resolves_everything(self, trained_sketch, suite):
        from repro.serve import SketchGateway, SketchHTTPServer

        sketch, _ = trained_sketch
        sketch.clear_cache()
        servers = []
        for _ in range(2):
            backend_manager = SketchManager(db=None)
            backend_manager.register_sketch(sketch)
            servers.append(
                SketchHTTPServer(
                    backend_manager,
                    ServeConfig(
                        max_batch_size=8, use_cache=False,
                        max_queue_depth=16,
                    ),
                    port=0,
                ).start()
            )
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=60, **FAST), seed=14
        )
        try:
            with SketchGateway(
                [server.url for server in servers], health_interval_s=None
            ) as gateway:
                result = shaper.replay(gateway)
                stats = gateway.stats_summary()
                peaks = [
                    int(s["queue_depth_peak"])
                    for s in stats["backends"].values()
                    if s is not None
                ]
        finally:
            for server in servers:
                server.close()
        assert result.ok
        assert result.n_ok > 0
        assert len(peaks) == 2
        assert all(peak <= 16 for peak in peaks)

    def test_dead_fleet_fails_structured_not_hung(self, trained_sketch, suite):
        # Every backend is gone: the audit must see structured route
        # failures, not exceptions and not hung futures.
        from repro.serve import SketchGateway, SketchHTTPServer

        sketch, _ = trained_sketch
        backend_manager = SketchManager(db=None)
        backend_manager.register_sketch(sketch)
        server = SketchHTTPServer(
            backend_manager, ServeConfig(max_batch_size=8), port=0
        ).start()
        shaper = TrafficShaper(
            suite, TrafficConfig(n_requests=20, **FAST), seed=16
        )
        with SketchGateway(
            [server.url], health_interval_s=None, retries=0
        ) as gateway:
            server.close()  # the fleet dies before the stream starts
            result = shaper.replay(gateway)
        assert result.zero_hung
        assert result.structured_only
        assert result.n_ok == 0
        assert result.n_failed == 20


class TestReplayResult:
    def test_accounting_gates(self):
        from repro.workload import ReplayResult

        result = ReplayResult(n_requests=10, n_ok=7)
        result.code_counts["shed"] = 3
        assert result.ok
        result.n_unresolved = 1
        assert not result.zero_hung and not result.ok
        result.n_unresolved = 0
        result.n_unstructured = 1
        assert not result.structured_only and not result.ok
