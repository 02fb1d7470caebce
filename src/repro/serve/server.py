"""The synchronous serving facade over the estimation engine.

One of the three :class:`~repro.serve.service.SketchService`
implementations (with :class:`~repro.serve.async_server.AsyncSketchServer`
and :class:`~repro.serve.client.RemoteSketchServer`): ``submit`` returns
a future, ``estimate`` blocks for one response, ``serve`` handles a
whole stream — swapping this facade for a remote client is a one-line
change.  Request lifecycle::

    submit(sql | Query [, sketch])   # enqueue, cheap -> Future
        -> flush()                   # one caller-driven engine flush
            -> list[EstimateResponse]  # in submission order

Since the engine refactor, :class:`SketchServer` holds no lifecycle
logic of its own: parsing, routing, admission control, micro-batching,
caching, and execution all live in
:class:`~repro.serve.engine.EstimationEngine`, which this facade drives
with caller-initiated flushes (no background thread, no submit-time
coalescing — every request gets its own response object, answered when
*you* flush).  That shape fits offline streams — a file of queries, a
benchmark, a bulk re-estimation job.  For live concurrent traffic,
where no single caller sees the whole stream and tail latency must be
bounded, use :class:`repro.serve.async_server.AsyncSketchServer`: the
same engine, driven by a background flush loop.

The engine's executor applies here too: with
``ServeConfig(executor="process")`` a single ``flush()`` fans its
micro-batches out across worker processes.  Call :meth:`close` (or use
the server as a context manager) when using a pooled executor so
worker threads/processes are released; the default inline executor
needs no cleanup.

Numerical behavior: with the default inline executor the answers are
bit-identical to the pre-engine ``SketchServer`` (same
``estimate_many`` micro-batches, same cache interaction); thread and
process executors agree within the few-ULP BLAS rounding documented in
``docs/serving.md`` § *Numerical parity caveat*.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..workload.query import Query
from ..demo.manager import SketchManager
from .engine import (
    EstimateResponse,
    EstimationEngine,
    ServeConfig,
    ServerStats,
    answer_chunk,
    prepare_request,
)


class SketchServer:
    """Serves cardinality estimates from a :class:`SketchManager`.

    The server holds no model state of its own; it is a facade over an
    :class:`~repro.serve.engine.EstimationEngine`.  Requests are parsed
    at submit time and routed **at the latest possible moment**: a
    request with a covering sketch buffers under it immediately, one
    without defers and is re-routed at flush time (route-at-flush) —
    so sketches may be dropped or rebuilt between submit and flush
    (already-routed requests to a dropped sketch resolve as
    per-request errors), and a sketch registered mid-stream serves
    every not-yet-flushed submit, not just subsequent ones.
    ``feature_cache`` (a
    :class:`repro.serve.feature_cache.FeatureCache`) is optional and may
    be shared with other servers; it persists template structure rows
    across flushes.  Not thread-safe: concurrent callers must serialize
    around it (or use the async facade, which is).

    Telemetry: :attr:`stats` is the raw counter block
    (:class:`~repro.serve.engine.ServerStats`); :meth:`stats_summary`
    is the engine's one-call snapshot (queue-depth gauge, shed /
    deadline counters, flush-latency percentiles), identical in shape
    to the async facade's.
    """

    def __init__(
        self,
        manager: SketchManager,
        config: ServeConfig | None = None,
        feature_cache=None,
    ):
        self.engine = EstimationEngine(
            manager, config or ServeConfig(), feature_cache
        )
        self._futures: list = []

    # -- engine views ---------------------------------------------------
    @property
    def manager(self) -> SketchManager:
        return self.engine.manager

    @property
    def config(self) -> ServeConfig:
        return self.engine.config

    @property
    def stats(self) -> ServerStats:
        return self.engine.counters

    @property
    def feature_cache(self):
        return self.engine.feature_cache

    def stats_summary(self) -> dict:
        """The engine's one-call telemetry snapshot (both facades share
        this shape; see :meth:`EstimationEngine.stats`)."""
        return self.engine.stats()

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(self, request: Query | str, sketch: str | None = None):
        """Enqueue one request; returns its ``Future[EstimateResponse]``.

        The future resolves at the next caller-driven :meth:`flush`
        (this facade has no background loop).  ``sketch`` pins the
        request to a named sketch; otherwise the request is routed to
        the narrowest registered sketch covering its tables (decided at
        flush time when nothing covers it yet — route-at-flush).
        Parse failures — and admission-control sheds, when
        ``max_queue_depth`` is set — resolve the future immediately
        with a structured error response; nothing raises through it.
        """
        future = self.engine.submit(request, sketch, coalesce=False)
        self._futures.append(future)
        return future

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ):
        """Amortized intake: enqueue a whole batch under one engine lock.

        Semantically identical to calling :meth:`submit` per request;
        returns the futures in submission order (resolved by the next
        :meth:`flush`).
        """
        futures = self.engine.submit_many(list(requests), sketch, coalesce=False)
        self._futures.extend(futures)
        return futures

    def estimate(
        self, request: Query | str, sketch: str | None = None
    ) -> EstimateResponse:
        """Blocking one-shot convenience: submit, flush, return.

        Note the facade semantics: the flush answers *everything*
        pending on this server, exactly as an explicit :meth:`flush`
        would (previously submitted futures resolve too).
        """
        future = self.submit(request, sketch)
        self.flush()
        return future.result()

    @property
    def pending(self) -> int:
        return len(self._futures)

    def plan(self, request: Query | str, sketch: str | None = None):
        """Join-order advice: one batched estimation round for every
        connected subplan, injected into the DP enumerator.

        Returns a structured
        :class:`~repro.serve.plan.PlanResponse` (never an exception for
        request-level failures).  Facade semantics as with
        :meth:`estimate`: the internal flush answers *everything*
        pending on this server, not just the plan's subplan batch.
        """
        from .plan import plan_query

        return plan_query(self, request, sketch, flush=self.flush)

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """Submit a whole stream and flush it: the one-call batch API."""
        self.submit_many(list(requests), sketch)
        return self.flush()

    # ------------------------------------------------------------------
    # the batched answer path
    # ------------------------------------------------------------------
    def flush(self) -> list[EstimateResponse]:
        """Answer every pending request; responses in submission order.

        One engine flush: per-sketch micro-batches of at most
        ``max_batch_size``, all dispatched to the configured executor as
        a single round (so thread/process executors overlap them).
        """
        futures, self._futures = self._futures, []
        self.engine.flush_pending()
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # lifecycle (pooled executors want an explicit release)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush anything pending and release the executor (idempotent)."""
        if not self.engine.closed:
            self.flush()
        self.engine.close()

    def __enter__(self) -> "SketchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "EstimateResponse",
    "ServeConfig",
    "ServerStats",
    "SketchServer",
    "answer_chunk",
    "prepare_request",
]
