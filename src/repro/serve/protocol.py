"""The versioned JSON wire protocol of the estimation service.

Every remote transport — the stdlib HTTP front door
(:mod:`repro.serve.http`), the client SDK
(:mod:`repro.serve.client`), and whatever gRPC/shard fan-out comes
later — speaks the envelopes bound **here**.  The messages themselves
are declared once, in :mod:`repro.serve.schema` (one field table per
message in ``docs/serving.md``); each function below is one of them
bound to the JSON codec, so both sides of the wire share one schema
and a round trip is an identity:
``response_from_wire(response_to_wire(r)) == r`` for every response
class the engine produces (ok, ``parse``, ``route``, ``vocab``,
``shed``, ``deadline``, ``internal``), and likewise for plan responses.

Envelopes
---------

Every payload carries ``protocol_version`` (currently ``1``).  A
receiver rejects other versions with
:class:`~repro.errors.ProtocolError` — explicit version skew beats
silent misparses when client and server are deployed independently.

Request envelope (``POST /v1/estimate`` and ``POST /v1/plan``)::

    {"protocol_version": 1, "sql": "SELECT COUNT(*) ...", "sketch": null}

Batch request envelope (``POST /v1/estimate_batch``)::

    {"protocol_version": 1, "queries": ["SELECT ...", ...], "sketch": null}

Response envelope: the structured
:class:`~repro.serve.engine.EstimateResponse` serialization plus
server-side timing::

    {"protocol_version": 1, "ok": true, "request": "SELECT ...",
     "request_kind": "sql", "query": "SELECT ...", "sketch": "imdb",
     "estimate": 1234.0, "cached": false, "error": null, "code": null,
     "token": 7, "server_ms": 1.7}

Batch response envelope::

    {"protocol_version": 1, "responses": [<response envelope>, ...],
     "server_ms": 3.2}

Error codes travel verbatim (``code`` is one of
:data:`repro.serve.engine.RESPONSE_CODES` or ``null``), so a remote
caller dispatches on the same constants a local caller does.
``server_ms`` is envelope metadata, not a response field: the
``*_from_wire`` functions return the response alone (read the timing
from the payload, or use :func:`repro.serve.schema.from_json`).
"""

from __future__ import annotations

from typing import Sequence

from ..db.query import Query
from .engine import EstimateResponse
from .plan import PlanResponse
from . import schema
from .schema import PROTOCOL_VERSION, check_version


def estimate_request_to_wire(
    request: Query | str, sketch: str | None = None
) -> dict:
    """Envelope for one estimation request (``POST /v1/estimate``)."""
    return schema.to_json(schema.REQUEST, request, sketch)


def estimate_request_from_wire(payload: dict) -> tuple[str, str | None]:
    """Validate a request envelope; returns ``(sql, pinned sketch)``."""
    return schema.from_json(schema.REQUEST, payload)


#: ``POST /v1/plan`` takes the same envelope as ``POST /v1/estimate``.
plan_request_to_wire = estimate_request_to_wire
plan_request_from_wire = estimate_request_from_wire


def batch_request_to_wire(
    requests: Sequence[Query | str], sketch: str | None = None
) -> dict:
    """Envelope for a batch request (``POST /v1/estimate_batch``)."""
    return schema.to_json(schema.BATCH_REQUEST, requests, sketch)


def batch_request_from_wire(payload: dict) -> tuple[list[str], str | None]:
    """Validate a batch envelope; returns ``(sql list, pinned sketch)``."""
    return schema.from_json(schema.BATCH_REQUEST, payload)


def response_to_wire(
    response: EstimateResponse, server_ms: float | None = None
) -> dict:
    """Serialize one :class:`EstimateResponse` (all outcome classes)."""
    return schema.to_json(schema.RESPONSE, response, server_ms)


def response_from_wire(payload: dict) -> EstimateResponse:
    """Reconstruct the exact :class:`EstimateResponse` a server produced."""
    return schema.from_json(schema.RESPONSE, payload)[0]


def batch_response_to_wire(
    responses: Sequence[EstimateResponse], server_ms: float | None = None
) -> dict:
    """Envelope for a batch of responses (one ``server_ms`` for all)."""
    return schema.to_json(schema.BATCH_RESPONSE, responses, server_ms)


def batch_response_from_wire(payload: dict) -> list[EstimateResponse]:
    return schema.from_json(schema.BATCH_RESPONSE, payload)[0]


def plan_response_to_wire(
    response: PlanResponse, server_ms: float | None = None
) -> dict:
    """Serialize one :class:`~repro.serve.plan.PlanResponse`: the join
    tree, every subplan estimate and the f64 timings, losslessly."""
    return schema.to_json(schema.PLAN_RESPONSE, response, server_ms)


def plan_response_from_wire(payload: dict) -> PlanResponse:
    """Reconstruct the exact :class:`~repro.serve.plan.PlanResponse`."""
    return schema.from_json(schema.PLAN_RESPONSE, payload)[0]


def error_to_wire(message: str, code: str = "protocol") -> dict:
    """Body of a non-2xx HTTP answer (bad envelope, unknown path, ...)."""
    return schema.to_json(schema.ERROR, message, code)


__all__ = [
    "PROTOCOL_VERSION",
    "batch_request_from_wire",
    "batch_request_to_wire",
    "batch_response_from_wire",
    "batch_response_to_wire",
    "check_version",
    "error_to_wire",
    "estimate_request_from_wire",
    "estimate_request_to_wire",
    "plan_request_from_wire",
    "plan_request_to_wire",
    "plan_response_from_wire",
    "plan_response_to_wire",
    "response_from_wire",
    "response_to_wire",
]
