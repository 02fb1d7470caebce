"""One parse-and-route step and one intake.

* The store and the gateway route by one rule: fed the same name ->
  tables map, ``prepare_request`` over a ``SketchManager`` and a
  ``SketchGateway`` over stub backends pick the same sketch, or both
  fail with ``code="route"`` and the same message — and the pick is the
  narrowest cover a brute force finds.
* ``submit(x)`` is ``submit_many([x])[0]``: on every intake path (fast
  hit, dedup, shed, parse error, deferred route, closed) the two give
  equal responses and move every counter by the same amount.
"""

import dataclasses
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DeepSketch, SketchManager
from repro.errors import SketchError
from repro.serve import (
    CODE_PARSE,
    CODE_ROUTE,
    PROTOCOL_VERSION,
    EstimateResponse,
    ServeConfig,
    SketchGateway,
    SketchServer,
    prepare_request,
)
from repro.workload import Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

# ---------------------------------------------------------------------------
# (a) one routing rule for the store and the gateway
# ---------------------------------------------------------------------------

TABLES = ("title", "movie_keyword", "movie_info", "cast_info", "keyword")
NAMES = ("a", "b", "c", "d", "e", "f")


class _Backend:
    """A stub front door advertising ``tables`` and echoing the pin."""

    def __init__(self, tables):
        self.tables = tables

    def healthz(self):
        return {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "sketches": sorted(self.tables),
            "tables": {name: sorted(t) for name, t in self.tables.items()},
            "pending": 0,
        }

    def estimate(self, request, sketch=None):
        return EstimateResponse(request=request, query=None, sketch=sketch, estimate=1.0)

    def close(self):
        pass


def narrowest_by_brute_force(registry, needed):
    covering = [name for name, tables in registry.items() if needed <= tables]
    if not covering:
        return None
    fewest = min(len(registry[name]) for name in covering)
    return min(name for name in covering if len(registry[name]) == fewest)


@st.composite
def routing_cases(draw):
    subsets = st.frozensets(st.sampled_from(TABLES), min_size=1)
    registry = draw(st.dictionaries(st.sampled_from(NAMES), subsets, min_size=0, max_size=6))
    # Each sketch lives on backend 0, backend 1 or both (replicas).
    placement = {
        name: draw(st.sampled_from(((0,), (1,), (0, 1)))) for name in registry
    }
    needed = draw(st.lists(st.sampled_from(TABLES), min_size=1, max_size=3, unique=True))
    pinned = draw(st.none() | st.sampled_from(NAMES))
    return registry, placement, needed, pinned


@settings(max_examples=150, deadline=None)
@given(case=routing_cases())
def test_store_and_gateway_route_alike(case):
    registry, placement, needed, pinned = case
    query = Query(tables=tuple(TableRef(t, f"x{i}") for i, t in enumerate(needed)))

    manager = SketchManager()
    for name, tables in registry.items():
        manager.register_sketch(types.SimpleNamespace(name=name, tables=sorted(tables)))
    stubs = {
        f"http://n{i}:1": _Backend(
            {name: tables for name, tables in registry.items() if i in placement[name]}
        )
        for i in (0, 1)
    }
    gateway = SketchGateway(
        list(stubs), client_factory=stubs.__getitem__, health_interval_s=None
    )
    with gateway:
        served = gateway.estimate(query, pinned)
    local = prepare_request(manager, query, pinned)

    if pinned is not None:
        expected = pinned if pinned in registry else None
    else:
        expected = narrowest_by_brute_force(registry, set(needed))
    if expected is None:
        assert local.code == served.code == CODE_ROUTE
        assert local.error == served.error
    else:
        assert local.ok and served.ok
        assert local.sketch == served.sketch == expected


def test_gateway_parse_failure_reads_like_the_engine():
    stub = _Backend({"s": frozenset({"title"})})
    with SketchGateway(
        ["http://n0:1"], client_factory=lambda url: stub, health_interval_s=None
    ) as gateway:
        served = gateway.estimate("SELECT nonsense")
    local = prepare_request(SketchManager(), "SELECT nonsense", None)
    assert served.code == local.code == CODE_PARSE
    assert served.error == local.error


# ---------------------------------------------------------------------------
# (b) submit(x) == submit_many([x])[0] on every intake path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fresh(trained_sketch):
    """A factory of independent copies of the trained sketch, by name
    (each with its own cold result cache)."""
    blob = trained_sketch[0].to_bytes()

    def make(name):
        sketch = DeepSketch.from_bytes(blob)
        sketch.name = name
        return sketch

    return make


@pytest.fixture(scope="module")
def workload(imdb_small):
    queries = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=77).draw_many(12)
    return list(dict.fromkeys(queries))


def _one(server, layer, intake, request, sketch=None):
    target = server if layer == "server" else server.engine
    if intake == "submit":
        return target.submit(request, sketch)
    return target.submit_many([request], sketch)[0]


def _counters(server):
    return dataclasses.asdict(server.stats)


def _outcome(future, sketch):
    """The response as a comparable record (the token as "is it the
    live version's": each run serves its own copy of the sketch)."""
    response = future.result(0)
    record = dataclasses.asdict(response)
    record["token"] = None if response.token is None else response.token == sketch.snapshot_token
    return record


def _fast_hit(server, layer, intake, workload):
    server.serve([workload[0]])
    return _one(server, layer, intake, workload[0])


def _dedup(server, layer, intake, workload):
    server.submit_many([workload[1]])
    return _one(server, layer, intake, workload[1])


def _shed(server, layer, intake, workload):
    server.submit_many([workload[2]])
    return _one(server, layer, intake, workload[3])


def _parse_error(server, layer, intake, workload):
    return _one(server, layer, intake, "SELECT nonsense FROM")


def _deferred_route(server, layer, intake, workload):
    # Pinned to a name that is not registered yet: intake defers it,
    # and the flush re-routes it to the sketch registered meanwhile.
    future = _one(server, layer, intake, workload[4], "late")
    assert not future.done()
    server.manager.register_sketch(server.late)
    return future


PATHS = {
    "fast_hit": (_fast_hit, ServeConfig()),
    "dedup": (_dedup, ServeConfig()),
    "shed": (_shed, ServeConfig(max_queue_depth=1)),
    "parse_error": (_parse_error, ServeConfig()),
    "deferred_route": (_deferred_route, ServeConfig()),
}


def _run(fresh, path, layer, intake, workload):
    scenario, config = PATHS[path]
    manager = SketchManager()
    manager.register_sketch(fresh("main"))
    server = SketchServer(manager, config)
    server.late = fresh("late")
    before = _counters(server)
    future = scenario(server, layer, intake, workload)
    server.flush()
    after = _counters(server)
    outcome = _outcome(future, manager.get_sketch(future.result(0).sketch or "main"))
    server.close()
    delta = {
        key: (
            {k: after[key].get(k, 0) - before[key].get(k, 0) for k in after[key]}
            if isinstance(after[key], dict)
            else after[key] - before[key]
        )
        for key in after
    }
    return outcome, delta


@pytest.mark.parametrize("layer", ["server", "engine"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_submit_is_a_batch_of_one(fresh, workload, path, layer):
    single = _run(fresh, path, layer, "submit", workload)
    batch = _run(fresh, path, layer, "submit_many", workload)
    assert single == batch
    outcome, delta = single
    # Each path is the path it claims to be.
    expected = {
        "fast_hit": ("n_fast_cache_hits", True),
        "dedup": ("n_deduped", True),
        "shed": ("n_shed", False),
        "parse_error": ("n_errors", False),
        "deferred_route": ("n_answered", True),
    }[path]
    counter, ok = expected
    assert delta[counter] >= 1
    assert (outcome["error"] is None) == ok


@pytest.mark.parametrize("layer", ["server", "engine"])
@pytest.mark.parametrize("intake", ["submit", "submit_many"])
def test_closed_intake_raises_and_counts_nothing(fresh, workload, layer, intake):
    manager = SketchManager()
    manager.register_sketch(fresh("main"))
    server = SketchServer(manager)
    server.close()
    before = _counters(server)
    with pytest.raises(SketchError, match="closed"):
        _one(server, layer, intake, workload[0])
    assert _counters(server) == before
