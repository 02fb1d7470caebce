"""Generator of ``wire_v1_golden.json`` — the pinned bytes of wire v1.

The fixture was produced by running this script at commit 9ecc701 (the
last one whose codecs were written by hand, one body per envelope), so
it records what v1 peers actually emit.  It only calls the public
encoder names, which every later commit keeps, so re-running it must
reproduce the committed file byte for byte::

    PYTHONPATH=src python tests/serve/data/make_wire_v1_golden.py --check

Regenerate (no flag) only together with a ``PROTOCOL_VERSION`` /
``WIRE_VERSION`` bump; a diff at equal versions is a wire break.

One case per message kind and outcome class.  ``json`` is the text the
HTTP door sends (``json.dumps`` of the envelope), ``binary`` the frame
payload in hex.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.db.sql import parse_sql
from repro.optimizer.plans import JoinNode, LeafNode
from repro.serve import (
    RESPONSE_CODES,
    EstimateResponse,
    PlanResponse,
    SubplanEstimate,
    protocol,
    wire,
)

FIXTURE = Path(__file__).with_name("wire_v1_golden.json")

SQL = "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;"
JOIN_SQL = (
    "SELECT COUNT(*) FROM title t, movie_keyword mk "
    "WHERE mk.movie_id = t.id AND t.production_year > 2000;"
)
UNICODE_SQL = "SELECT COUNT(*) FROM title t WHERE t.title = 'Amélie — 映画';"

#: message kind -> (JSON encoder, binary encoder), both taking the same
#: positional arguments.
ENCODERS = {
    "request": (protocol.estimate_request_to_wire, wire.encode_estimate_request),
    "plan_request": (protocol.plan_request_to_wire, wire.encode_plan_request),
    "batch_request": (protocol.batch_request_to_wire, wire.encode_batch_request),
    "response": (protocol.response_to_wire, wire.encode_response),
    "batch_response": (protocol.batch_response_to_wire, wire.encode_batch_response),
    "plan_response": (protocol.plan_response_to_wire, wire.encode_plan_response),
    "error": (protocol.error_to_wire, wire.encode_error),
}


def estimate_responses() -> dict[str, EstimateResponse]:
    """One response per outcome class: ok (both request kinds) and
    every code of the closed set."""
    query, join = parse_sql(SQL), parse_sql(JOIN_SQL)
    out = {
        "ok_sql": EstimateResponse(
            request=SQL, query=query, sketch="imdb",
            estimate=1234.567891011, cached=False, token=7,
        ),
        "ok_query_cached": EstimateResponse(
            request=join, query=join, sketch="imdb",
            estimate=0.3333333333333333, cached=True,
        ),
        "ok_huge_estimate": EstimateResponse(
            request=SQL, query=query, sketch="s",
            estimate=1.2345678901234567e17, token=2**40,
        ),
        "parse": EstimateResponse(
            request="SELECT nonsense;", query=None, sketch=None,
            estimate=None, error="expected 'COUNT', found 'nonsense'",
            code="parse",
        ),
        "route": EstimateResponse(
            request=SQL, query=query, sketch=None, estimate=None,
            error="no registered sketch covers tables ['title']",
            code="route",
        ),
        "vocab": EstimateResponse(
            request=query, query=query, sketch="imdb", estimate=None,
            error="column 'episode_nr' is outside the vocabulary",
            code="vocab", token=3,
        ),
        "shed": EstimateResponse(
            request=SQL, query=query, sketch="imdb", estimate=None,
            error="request shed: queue depth 64 >= max_queue_depth 64",
            code="shed",
        ),
        "deadline": EstimateResponse(
            request=query, query=query, sketch="imdb", estimate=None,
            error="deadline of 50ms exceeded", code="deadline",
        ),
        "internal": EstimateResponse(
            request=UNICODE_SQL, query=None, sketch="imdb", estimate=None,
            error="internal serving error: RuntimeError('bööm')",
            code="internal",
        ),
    }
    assert {r.code for r in out.values()} == {None, *RESPONSE_CODES}
    return out


def plan_responses() -> dict[str, PlanResponse]:
    star = parse_sql(
        "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_info mi "
        "WHERE mk.movie_id = t.id AND mi.movie_id = t.id;"
    )
    plan = JoinNode(JoinNode(LeafNode("t"), LeafNode("mi")), LeafNode("mk"))
    subplans = (
        SubplanEstimate(aliases=("t",), estimate=6.0, cached=True),
        SubplanEstimate(aliases=("mk",), estimate=8.0),
        SubplanEstimate(aliases=("mi",), estimate=5.0),
        SubplanEstimate(aliases=("mk", "t"), estimate=1000.0),
        SubplanEstimate(aliases=("mi", "t"), estimate=2.0),
        SubplanEstimate(aliases=("mi", "mk", "t"), estimate=50.25),
    )
    degraded = subplans[:3] + (
        SubplanEstimate(
            aliases=("mk", "t"), estimate=48.0, degraded=True,
            code="vocab", error="literal unseen",
        ),
        SubplanEstimate(
            aliases=("mi", "t"), estimate=30.0, degraded=True,
            code="shed", error=None,
        ),
    ) + subplans[5:]

    def failure(request, code, error, query=None, sketch=None):
        return PlanResponse(
            request=request, query=query, sketch=sketch, plan=None,
            estimated_cost=None, error=error, code=code,
        )

    return {
        "ok_query": PlanResponse(
            request=star, query=star, sketch="imdb", plan=plan,
            estimated_cost=52.25, subplans=subplans,
            estimate_ms=1.75, enumerate_ms=0.125,
        ),
        "ok_sql_degraded": PlanResponse(
            request=star.to_sql(), query=star, sketch="imdb", plan=plan,
            estimated_cost=80.0, subplans=degraded,
            estimate_ms=2.5, enumerate_ms=None,
        ),
        "single_table": PlanResponse(
            request=SQL, query=parse_sql(SQL), sketch=None,
            plan=LeafNode("t"), estimated_cost=0.0,
            subplans=(SubplanEstimate(aliases=("t",), estimate=1.0),),
        ),
        "parse": failure("SELECT nonsense", "parse", "expected 'COUNT'"),
        "plan": failure(star, "plan", "join graph is disconnected", query=star),
        "route": failure(
            star.to_sql(), "route", "no sketch covers it", query=star,
            sketch="pinned",
        ),
        "shed": failure(star, "shed", "no live replica", query=star),
        "internal": failure(UNICODE_SQL, "internal", "bööm"),
    }


def cases() -> list[dict]:
    query = parse_sql(SQL)
    estimates = estimate_responses()
    out: list[tuple[str, str, tuple]] = [
        ("request", "sql_unpinned", (SQL, None)),
        ("request", "query_pinned", (query, "imdb")),
        ("request", "unicode", (UNICODE_SQL, "skétch")),
        ("plan_request", "sql_unpinned", (JOIN_SQL, None)),
        ("plan_request", "query_pinned", (parse_sql(JOIN_SQL), "imdb")),
        ("batch_request", "mixed_repeated", ([SQL, query, JOIN_SQL, query], None)),
        ("batch_request", "pinned", ([UNICODE_SQL], "imdb")),
        ("batch_request", "empty", ([], None)),
    ]
    for name, response in estimates.items():
        out.append(("response", name, (response, None)))
        out.append(("response", name + "_timed", (response, 1.25)))
    everything = list(estimates.values())
    out += [
        ("batch_response", "every_class_timed", (everything, 9.5)),
        ("batch_response", "every_class_untimed", (everything, None)),
        ("batch_response", "repeats", ([estimates["ok_query_cached"]] * 3, 0.5)),
        ("batch_response", "empty", ([], None)),
    ]
    for name, response in plan_responses().items():
        out.append(("plan_response", name, (response, None)))
        out.append(("plan_response", name + "_timed", (response, 7.25)))
    out += [
        ("error", "protocol", ("request body is empty", "protocol")),
        ("error", "not_found", ("unknown endpoint '/v1/nöpe'", "not_found")),
        ("error", "internal", ("service unavailable: closed", "internal")),
    ]
    return [
        {
            "message": message,
            "name": name,
            "json": json.dumps(ENCODERS[message][0](*args)),
            "binary": ENCODERS[message][1](*args).hex(),
        }
        for message, name, args in out
    ]


def render() -> str:
    document = {
        "protocol_version": protocol.PROTOCOL_VERSION,
        "wire_version": wire.WIRE_VERSION,
        "generated_at_commit": "9ecc701",
        "cases": cases(),
    }
    return json.dumps(document, indent=1, ensure_ascii=True) + "\n"


if __name__ == "__main__":
    text = render()
    if "--check" in sys.argv[1:]:
        if FIXTURE.read_text() != text:
            sys.exit(f"{FIXTURE.name} differs from what this build encodes")
        print(f"{FIXTURE.name}: {len(json.loads(text)['cases'])} cases, identical")
    else:
        FIXTURE.write_text(text)
        print(f"wrote {FIXTURE}")
