"""Plan advisory service: one-round-trip batching, degradation, wire
envelopes, and end-to-end parity with the in-process optimizer.

Three layers.  The stub layer drives :func:`plan_query` with a scripted
service so the ONE-``serve``-per-plan contract, the failure
codes, and the independence-assumption degradation are deterministic.
The envelope layer proves exact round-trip identity of the plan
envelopes on both codecs (JSON and binary frames).  The integration
layer serves a trained sketch through every implementation — caller-
driven, started, HTTP (both transports), gateway — and gates that the served
plan is *identical* to the in-process ``PlanOptimizer`` plan, and that
every failure path (including a backend dying mid-plan) resolves to a
structured code.
"""

import pytest

from repro.demo import SketchManager
from repro.errors import ProtocolError, RemoteServerError
from repro.optimizer import PlanOptimizer, connected_subsets
from repro.optimizer.plans import JoinNode, LeafNode
from repro.serve import (
    CODE_PARSE,
    CODE_PLAN,
    CODE_ROUTE,
    CODE_SHED,
    PLAN_RESPONSE_CODES,
    RESPONSE_CODES,
    EstimateResponse,
    PlanResponse,
    RemoteSketchServer,
    SketchGateway,
    SketchHTTPServer,
    SketchServer,
    SubplanEstimate,
    plan_query,
)
from repro.serve import protocol, wire
from repro.workload import JoinEdge, Query, TableRef


def star_query():
    return Query(
        tables=(
            TableRef("title", "t"),
            TableRef("movie_keyword", "mk"),
            TableRef("movie_info", "mi"),
        ),
        joins=(
            JoinEdge("mk", "movie_id", "t", "id"),
            JoinEdge("mi", "movie_id", "t", "id"),
        ),
    )


JOIN_SQL = (
    "SELECT COUNT(*) FROM title t,movie_keyword mk "
    "WHERE mk.movie_id=t.id AND t.production_year > 2000;"
)


class _StubService:
    """Scripted SketchService: answered batches, counted.

    ``estimates`` maps alias frozensets to values; ``failures`` maps
    alias frozensets to (code, error) pairs that answer as structured
    failures instead.
    """

    def __init__(self, estimates, failures=None, sketch="stub"):
        self.estimates = dict(estimates)
        self.failures = dict(failures or {})
        self.sketch = sketch
        self.batch_calls = 0
        self.batch_sizes = []

    def serve(self, requests, sketch=None):
        self.batch_calls += 1
        self.batch_sizes.append(len(requests))
        responses = []
        for request in requests:
            aliases = frozenset(request.aliases)
            response = EstimateResponse(
                request=request, query=request, sketch=sketch or self.sketch,
                estimate=None,
            )
            if aliases in self.failures:
                response.code, response.error = self.failures[aliases]
            else:
                response.estimate = self.estimates.get(aliases, 100.0)
            responses.append(response)
        return responses


STAR_ESTIMATES = {
    frozenset(["t"]): 6.0,
    frozenset(["mk"]): 8.0,
    frozenset(["mi"]): 5.0,
    frozenset(["t", "mk"]): 1000.0,
    frozenset(["t", "mi"]): 2.0,
    frozenset(["t", "mk", "mi"]): 50.0,
}


# ---------------------------------------------------------------------------
# stub layer: plan_query semantics
# ---------------------------------------------------------------------------

class TestPlanQuery:
    def test_exactly_one_batch_round_trip(self):
        """The acceptance gate: one plan = ONE serve call, sized
        to the full connected-subset enumeration."""
        service = _StubService(STAR_ESTIMATES)
        query = star_query()
        response = plan_query(service, query)
        assert response.ok
        assert service.batch_calls == 1
        assert service.batch_sizes == [len(connected_subsets(query))]

    def test_plan_matches_dp_over_same_estimates(self):
        service = _StubService(STAR_ESTIMATES)
        response = plan_query(service, star_query())
        # (t ⨝ mi) is scripted far cheaper than (t ⨝ mk).
        inner = next(iter(response.plan.join_nodes()))
        assert inner.aliases == frozenset(["t", "mi"])
        assert response.estimated_cost == pytest.approx(52.0)
        assert response.sketch == "stub"
        assert response.estimate_ms is not None
        assert response.enumerate_ms is not None

    def test_subplans_in_enumeration_order(self):
        service = _StubService(STAR_ESTIMATES)
        response = plan_query(service, star_query())
        subsets = [frozenset(s.aliases) for s in response.subplans]
        assert subsets == connected_subsets(star_query())
        by_subset = {frozenset(s.aliases): s for s in response.subplans}
        assert by_subset[frozenset(["t"])].estimate == 6.0
        assert all(s.ok for s in response.subplans)
        assert not response.degraded

    def test_estimates_clamped_like_cardinality_cache(self):
        estimates = dict(STAR_ESTIMATES)
        estimates[frozenset(["t", "mi"])] = 0.001
        service = _StubService(estimates)
        response = plan_query(service, star_query())
        by_subset = {frozenset(s.aliases): s for s in response.subplans}
        assert by_subset[frozenset(["t", "mi"])].estimate == 1.0

    def test_parse_failure_before_any_round_trip(self):
        service = _StubService(STAR_ESTIMATES)
        response = plan_query(service, "SELECT nonsense")
        assert not response.ok and response.code == CODE_PARSE
        assert response.plan is None
        assert service.batch_calls == 0

    def test_unplannable_join_graph_before_any_round_trip(self):
        service = _StubService({})
        disconnected = Query(
            tables=(TableRef("title", "t"), TableRef("movie_info", "mi"))
        )
        response = plan_query(service, disconnected)
        assert not response.ok and response.code == CODE_PLAN
        assert service.batch_calls == 0
        too_wide = Query(
            tables=tuple(TableRef(f"t{i}", f"a{i}") for i in range(11)),
            joins=tuple(
                JoinEdge(f"a{i}", "x", f"a{i+1}", "x") for i in range(10)
            ),
        )
        response = plan_query(service, too_wide)
        assert not response.ok and response.code == CODE_PLAN
        assert service.batch_calls == 0

    def test_route_failure_fails_the_whole_plan(self):
        failures = {frozenset(["t", "mk"]): (CODE_ROUTE, "no cover")}
        service = _StubService(STAR_ESTIMATES, failures)
        response = plan_query(service, star_query())
        assert not response.ok and response.code == CODE_ROUTE
        assert response.plan is None

    def test_failed_subplan_degrades_to_independence_estimate(self):
        failures = {frozenset(["t", "mk"]): ("vocab", "literal unseen")}
        service = _StubService(STAR_ESTIMATES, failures)
        response = plan_query(service, star_query())
        assert response.ok  # the plan survives
        assert response.degraded
        by_subset = {frozenset(s.aliases): s for s in response.subplans}
        fallen = by_subset[frozenset(["t", "mk"])]
        assert fallen.degraded and not fallen.ok
        assert fallen.code == "vocab" and fallen.error == "literal unseen"
        # Independence fallback: |t| * |mk| from the singleton estimates.
        assert fallen.estimate == pytest.approx(6.0 * 8.0)
        # The degraded value feeds the DP: (t ⨝ mi) is still cheapest.
        inner = next(iter(response.plan.join_nodes()))
        assert inner.aliases == frozenset(["t", "mi"])

    def test_degraded_estimates_steer_the_dp(self):
        # Shed the cheap side: its 6*5=30 fallback beats mk's 1000, so
        # the DP still picks (t ⨝ mi) — but shed BOTH sides' singletons
        # too and the fallback floors at 1.0 each.
        failures = {
            frozenset(["t"]): ("shed", "overload"),
            frozenset(["mi"]): ("shed", "overload"),
            frozenset(["t", "mi"]): ("shed", "overload"),
        }
        service = _StubService(STAR_ESTIMATES, failures)
        response = plan_query(service, star_query())
        assert response.ok and response.degraded
        by_subset = {frozenset(s.aliases): s for s in response.subplans}
        assert by_subset[frozenset(["t"])].estimate == 1.0
        assert by_subset[frozenset(["t", "mi"])].estimate == 1.0

    def test_accepts_sql_text(self):
        service = _StubService(
            {
                frozenset(["t"]): 6.0,
                frozenset(["mk"]): 8.0,
                frozenset(["t", "mk"]): 12.0,
            }
        )
        response = plan_query(service, JOIN_SQL)
        assert response.ok
        assert response.request == JOIN_SQL
        assert isinstance(response.query, Query)
        assert response.estimated_cost == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# envelope layer: JSON + binary round-trip identity
# ---------------------------------------------------------------------------

def _ok_response():
    service = _StubService(STAR_ESTIMATES)
    return plan_query(service, star_query())


def _assert_same_plan_response(a: PlanResponse, b: PlanResponse):
    assert str(b.plan) == str(a.plan)
    assert b.plan == a.plan
    assert b.estimated_cost == a.estimated_cost  # f64 is lossless
    assert b.subplans == a.subplans
    assert b.sketch == a.sketch
    assert b.error == a.error and b.code == a.code
    assert b.estimate_ms == a.estimate_ms
    assert b.enumerate_ms == a.enumerate_ms
    assert b.query == a.query


class TestPlanEnvelopes:
    def test_code_sets(self):
        assert PLAN_RESPONSE_CODES == RESPONSE_CODES + (CODE_PLAN,)
        assert CODE_PLAN not in RESPONSE_CODES  # engine set stays closed

    def test_json_request_round_trip(self):
        payload = protocol.plan_request_to_wire(star_query(), "imdb")
        sql, sketch = protocol.plan_request_from_wire(payload)
        assert sketch == "imdb"
        from repro.db.sql import parse_sql

        assert parse_sql(sql) == star_query()

    def test_json_response_round_trip(self):
        response = _ok_response()
        payload = protocol.plan_response_to_wire(response, server_ms=3.5)
        assert payload["ok"] is True
        assert payload["server_ms"] == 3.5
        back = protocol.plan_response_from_wire(payload)
        _assert_same_plan_response(response, back)

    def test_json_failure_round_trip(self):
        response = plan_query(_StubService({}), "SELECT nonsense")
        back = protocol.plan_response_from_wire(
            protocol.plan_response_to_wire(response)
        )
        assert not back.ok and back.code == CODE_PARSE
        assert back.plan is None and back.error == response.error

    def test_json_degraded_round_trip(self):
        failures = {frozenset(["t", "mk"]): ("vocab", "unseen")}
        response = plan_query(_StubService(STAR_ESTIMATES, failures), star_query())
        back = protocol.plan_response_from_wire(
            protocol.plan_response_to_wire(response)
        )
        assert back.degraded
        _assert_same_plan_response(response, back)

    def test_json_rejects_degradation_code_disagreement(self):
        response = _ok_response()
        payload = protocol.plan_response_to_wire(response)
        payload["subplans"][0]["degraded"] = True  # no code to explain it
        with pytest.raises(ProtocolError):
            protocol.plan_response_from_wire(payload)

    def test_json_rejects_plan_and_error_together(self):
        payload = protocol.plan_response_to_wire(_ok_response())
        payload["error"] = "but also an error"
        payload["code"] = "internal"
        with pytest.raises(ProtocolError):
            protocol.plan_response_from_wire(payload)

    def test_binary_request_round_trip(self):
        sql = star_query().to_sql()
        assert wire.decode_plan_request(
            wire.encode_plan_request(sql, "imdb")
        ) == (sql, "imdb")
        assert wire.decode_plan_request(wire.encode_plan_request(sql)) == (
            sql,
            None,
        )

    def test_binary_response_round_trip(self):
        response = _ok_response()
        back, server_ms = wire.decode_plan_response(
            wire.encode_plan_response(response, server_ms=7.25)
        )
        assert server_ms == 7.25
        _assert_same_plan_response(response, back)

    def test_binary_degraded_and_failure_round_trips(self):
        failures = {frozenset(["t", "mi"]): ("shed", "overload")}
        degraded = plan_query(_StubService(STAR_ESTIMATES, failures), star_query())
        back, _ = wire.decode_plan_response(wire.encode_plan_response(degraded))
        assert back.degraded
        _assert_same_plan_response(degraded, back)

        failure = plan_query(_StubService({}), "SELECT nonsense")
        back, server_ms = wire.decode_plan_response(
            wire.encode_plan_response(failure)
        )
        assert server_ms is None
        assert not back.ok and back.code == CODE_PARSE and back.plan is None

    def test_binary_plan_tree_nesting(self):
        # A deep-but-legal left-deep tree survives; the depth guard
        # rejects a frame nesting past the bound.
        plan = LeafNode("a0")
        for i in range(1, 9):
            plan = JoinNode(plan, LeafNode(f"a{i}"))
        response = PlanResponse(
            request="q", query=None, sketch=None, plan=plan,
            estimated_cost=1.0,
            subplans=(SubplanEstimate(aliases=("a0",), estimate=1.0),),
        )
        back, _ = wire.decode_plan_response(wire.encode_plan_response(response))
        assert back.plan == plan

        blob = wire.encode_plan_response(response)
        tree_at = blob.index(b"\x01" * 8)  # the eight join tags, preorder
        corrupt = blob[:tree_at] + b"\x01" * 100 + blob[tree_at:]
        with pytest.raises(ProtocolError, match="nests deeper"):
            wire.decode_plan_response(corrupt)

    def test_binary_rejects_unknown_code_byte(self):
        blob = bytearray(wire.encode_plan_response(_ok_response()))
        blob[1] = 0xEE  # the plan-code byte
        with pytest.raises(ProtocolError):
            wire.decode_plan_response(bytes(blob))

    def test_binary_rejects_truncation(self):
        blob = wire.encode_plan_response(_ok_response())
        with pytest.raises(ProtocolError):
            wire.decode_plan_response(blob[: len(blob) - 3])


# ---------------------------------------------------------------------------
# integration layer: every implementation, one contract
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plan_setup(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    query = star_query()
    reference = PlanOptimizer(imdb_small, sketch).optimize(query)
    yield manager, sketch, query, reference
    sketch.clear_cache()


class TestServeParity:
    def test_sync_facade_matches_plan_optimizer(self, plan_setup):
        manager, sketch, query, reference = plan_setup
        with SketchServer(manager) as server:
            response = server.plan(query.to_sql())
        assert response.ok and not response.degraded
        assert str(response.plan) == str(reference.plan)
        assert response.estimated_cost == pytest.approx(
            reference.estimated_cost
        )
        assert response.sketch == sketch.name

    def test_async_facade_matches_plan_optimizer(self, plan_setup):
        manager, _sketch, query, reference = plan_setup
        with SketchServer(manager).start() as server:
            response = server.plan(query)
        assert response.ok
        assert str(response.plan) == str(reference.plan)

    def test_sync_plan_flushes_everything_pending(self, plan_setup):
        manager, _sketch, query, _reference = plan_setup
        with SketchServer(manager) as server:
            earlier = server.submit(
                "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;"
            )
            response = server.plan(query)
            assert response.ok
            assert earlier.done() and earlier.result().ok

    def test_subplan_count_matches_enumeration(self, plan_setup):
        manager, _sketch, query, _reference = plan_setup
        with SketchServer(manager) as server:
            response = server.plan(query)
        assert len(response.subplans) == len(connected_subsets(query))

    def test_uncovered_join_graph_is_a_route_failure(self, plan_setup):
        manager, _sketch, _query, _reference = plan_setup
        bad = Query(
            tables=(TableRef("keyword", "k"), TableRef("title", "t")),
            joins=(JoinEdge("k", "id", "t", "id"),),
        )
        with SketchServer(manager) as server:
            response = server.plan(bad)
        assert not response.ok and response.code == CODE_ROUTE


class TestPlanOverHTTP:
    @pytest.fixture(scope="class")
    def door(self, plan_setup):
        manager, _sketch, _query, _reference = plan_setup
        with SketchHTTPServer(manager, port=0) as server:
            yield server

    def test_healthz_advertises_plan(self, door):
        with RemoteSketchServer(door.url) as client:
            health = client.healthz()
        assert health["plan"] is True

    def test_json_transport_parity_and_one_round_trip(self, door, plan_setup):
        _manager, _sketch, query, reference = plan_setup
        with RemoteSketchServer(door.url, transport="json") as client:
            calls = []
            original = client._http

            def counted(method, path, payload=None):
                calls.append((method, path))
                return original(method, path, payload)

            client._http = counted
            response = client.plan(query.to_sql())
            # Feature detection reads healthz; the plan itself is ONE POST.
            assert calls.count(("POST", "/v1/plan")) == 1
            assert [c for c in calls if c[0] == "POST"] == [
                ("POST", "/v1/plan")
            ]
        assert response.ok
        assert str(response.plan) == str(reference.plan)
        assert response.estimated_cost == pytest.approx(
            reference.estimated_cost
        )
        assert response.request == query.to_sql()

    def test_binary_transport_parity(self, door, plan_setup):
        _manager, _sketch, query, reference = plan_setup
        with RemoteSketchServer(door.url, transport="binary") as client:
            response = client.plan(query)
            assert client.active_transport == "binary"
        assert response.ok
        assert str(response.plan) == str(reference.plan)
        assert response.request == query

    def test_remote_failure_is_structured(self, door):
        with RemoteSketchServer(door.url) as client:
            response = client.plan("SELECT nonsense")
        assert not response.ok and response.code == CODE_PARSE

    def test_plan_incapable_server_raises_typed_error(self, door):
        with RemoteSketchServer(door.url) as client:
            assert client.plan_capable() is True
            # Re-detect against a scripted healthz that lacks the field
            # (what a pre-plan server answers).
            assert client.plan_capable(health={"status": "ok"}) is False
            with pytest.raises(RemoteServerError):
                client.plan(JOIN_SQL)


class TestGatewayPlan:
    def test_gateway_routes_plan_to_capable_backend(self, plan_setup):
        manager, _sketch, query, reference = plan_setup
        with SketchHTTPServer(manager, port=0) as door:
            with SketchGateway([door.url], health_interval_s=None) as gateway:
                response = gateway.plan(query.to_sql())
                assert response.ok
                assert str(response.plan) == str(reference.plan)
                # Failure paths stay structured at the gateway.
                parse = gateway.plan("SELECT nonsense")
                assert not parse.ok and parse.code == CODE_PARSE
                route = gateway.plan(query.to_sql(), sketch="missing")
                assert not route.ok and route.code == CODE_ROUTE

    def test_backend_death_mid_plan_resolves_structured(self, plan_setup):
        manager, _sketch, query, _reference = plan_setup
        door = SketchHTTPServer(manager, port=0).start()
        gateway = SketchGateway(
            [door.url], health_interval_s=None, retries=1, backoff_s=0.0
        )
        try:
            assert gateway.plan(query).ok
            door.close()  # the backend dies with a plan's worth of state
            response = gateway.plan(query)
            assert not response.ok and response.code == CODE_SHED
            assert "shed" in response.code
        finally:
            gateway.close()
            door.close()

    def test_no_plan_capable_replica_sheds(self, plan_setup):
        manager, _sketch, query, _reference = plan_setup
        with SketchHTTPServer(manager, port=0) as door:
            with SketchGateway([door.url], health_interval_s=None) as gateway:
                # Simulate a fleet of pre-plan backends: estimates still
                # flow, plans shed with a structured code.
                for backend in gateway._backends:
                    backend.plan_ok = False
                response = gateway.plan(query)
                assert not response.ok and response.code == CODE_SHED
                assert gateway.estimate(query).ok
