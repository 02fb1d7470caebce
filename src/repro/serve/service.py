"""`SketchService` — the one public estimation API, local or remote.

Three interchangeable implementations stand behind this protocol:

* :class:`~repro.serve.server.SketchServer` — in-process; caller-driven
  flushes until ``start()``, a background flush loop after;
* :class:`~repro.serve.client.RemoteSketchServer` — the client SDK,
  speaking the versioned wire protocol
  (:mod:`repro.serve.protocol`) to an HTTP front door
  (:mod:`repro.serve.http`);
* :class:`~repro.serve.gateway.SketchGateway` — the same surface over
  N backend front doors.

Swapping local serving for remote serving is a one-line change::

    service = SketchServer(manager)                  # in-process, caller-driven
    service = SketchServer(manager).start()          # in-process, loop
    service = RemoteSketchServer("http://host:8080") # over the wire

    with service:
        response = service.estimate("SELECT COUNT(*) FROM title t ...")
        futures = service.submit_many(stream)
        print(service.stats_summary())

The shared surface:

``submit(request, sketch=None) -> Future[EstimateResponse]``
    Enqueue one request.  The future resolves with a *structured*
    :class:`~repro.serve.engine.EstimateResponse` — never an exception
    for per-request failures (parse, route, vocab, shed, deadline all
    arrive as ``ok=False`` responses with a
    :data:`~repro.serve.engine.RESPONSE_CODES` code).  *When* it
    resolves is the implementation's batching policy: at the next
    caller-driven flush, within ``~max_wait_ms`` (a started server), or
    when the HTTP round trip completes (remote).
``submit_many(requests, sketch=None) -> list[Future[EstimateResponse]]``
    Amortized intake for a batch (one lock acquisition in process, one
    wire round trip remotely).
``estimate(request, sketch=None) -> EstimateResponse``
    The blocking one-shot convenience: submit and wait.
``serve(requests, sketch=None) -> list[EstimateResponse]``
    Submit a whole stream and block for every response, in submission
    order.
``plan(request, sketch=None) -> PlanResponse``
    Join-order advice (:mod:`repro.serve.plan`): every connected
    subplan of the query estimated as **one** batch, the answers
    injected into the DP enumerator under C_out.  Structured
    :class:`~repro.serve.plan.PlanResponse` values on every failure
    path, mirroring the estimate contract.
``stats_summary() -> dict``
    The engine's one-call JSON telemetry snapshot
    (:meth:`~repro.serve.engine.EstimationEngine.stats`); remotely this
    is ``GET /v1/stats``, byte-for-byte the same shape.
``close()`` / context manager
    Drain and release (executors, loops, HTTP connections).  Closing
    is idempotent; every accepted request is answered first.

The protocol is :func:`typing.runtime_checkable`, so transport-generic
code can assert ``isinstance(service, SketchService)`` — structural
conformance only; per-method semantics are this module's contract.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from ..db.query import Query
from .engine import EstimateResponse

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .plan import PlanResponse


@runtime_checkable
class SketchService(Protocol):
    """Structural protocol of every estimation service (see module docs)."""

    def submit(
        self, request: Query | str, sketch: str | None = None
    ) -> "Future[EstimateResponse]": ...

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ) -> "list[Future[EstimateResponse]]": ...

    def estimate(
        self, request: Query | str, sketch: str | None = None
    ) -> EstimateResponse: ...

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]: ...

    def plan(
        self, request: Query | str, sketch: str | None = None
    ) -> "PlanResponse": ...

    def stats_summary(self) -> dict: ...

    def close(self) -> None: ...

    def __enter__(self) -> "SketchService": ...

    def __exit__(self, *exc_info) -> None: ...


__all__ = ["SketchService"]
