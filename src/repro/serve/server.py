"""The in-process serving facade over the estimation engine.

One of the :class:`~repro.serve.service.SketchService` implementations
(with :class:`~repro.serve.client.RemoteSketchServer` and
:class:`~repro.serve.gateway.SketchGateway`): ``submit`` returns a
future, ``estimate`` blocks for one response, ``serve`` handles a whole
stream — swapping this facade for a remote client is a one-line change.

:class:`SketchServer` holds no lifecycle logic of its own: parsing,
routing, the result-cache fast path, dedup, admission control,
micro-batching, execution and scatter all live in
:class:`~repro.serve.engine.EstimationEngine`.  The facade only decides
*who flushes*:

* **Caller-driven** (the state after construction).  No thread runs;
  futures resolve when *you* call :meth:`flush` (``estimate``, ``serve``
  and ``plan`` answer for you).  That shape fits offline streams — a file
  of queries, a benchmark, a bulk re-estimation job::

      server = SketchServer(manager)
      futures = [server.submit(sql) for sql in stream]
      responses = server.flush()          # in submission order

* **Background loop** (after :meth:`start`).  A daemon thread flushes
  each per-sketch buffer when it is full, when its oldest request has
  waited ``max_wait_ms``, when it has been idle ``min_idle_ms``, and on
  ``close()``.  ``submit`` is thread-safe, so any number of client
  threads (or ``asyncio`` tasks via :meth:`submit_async`) share one
  flush — the shape for live concurrent traffic, where nobody sees the
  whole stream and tail latency must be bounded::

      with SketchServer(manager, ServeConfig(max_wait_ms=2.0)).start() as server:
          response = server.submit("SELECT COUNT(*) FROM title t ...").result()
      # leaving the context drains every buffered request, then stops

Requests submitted before :meth:`start` are answered by the loop.
There is no way back: a started server is never caller-driven again.

The timers exist to gather independent single requests into shared
micro-batches.  A blocking batch has nothing left to gather: in either
state, :meth:`serve` and :meth:`plan` answer their batch on the calling
thread as soon as its intake finishes, taking along whatever else is
buffered (a ``forced`` flush).  One flush token in the engine keeps the
loop and such callers to one flusher at a time.

The engine's executor applies in both states: with
``ServeConfig(executor="process")`` one flush fans its micro-batches out
across worker processes.  Call :meth:`close` (or use the server as a
context manager) when using a pooled executor so worker threads and
processes are released; the default inline executor needs no cleanup.

Numerical behavior: estimates match ``DeepSketch.estimate`` within the
few-ULP BLAS rounding documented in ``docs/serving.md`` § *Numerical
parity caveat*, whichever state flushes them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import SketchError
from ..db.query import Query
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
    across flushes.  Caller-driven, the server is not thread-safe:
    concurrent callers must serialize around it, or :meth:`start` it.

    Telemetry: :attr:`stats` is the raw counter block
    (:class:`~repro.serve.engine.ServerStats`); :meth:`stats_summary`
    is the engine's one-call snapshot (queue-depth gauge, shed /
    deadline counters, flush-latency percentiles).
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
        # Futures a caller-driven flush() returns, in submission order.
        self._futures: list = []
        self._started = False

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
        """The engine's one-call telemetry snapshot (see
        :meth:`EstimationEngine.stats`)."""
        return self.engine.stats()

    def wait_summary(self) -> dict[str, float]:
        """Queueing-wait percentiles (seconds) over the recent window.

        The wait is submit-to-flush-start — the part of latency the
        ``max_wait_ms`` trigger bounds; model time is excluded.  Fast
        cache hits count as zero wait.
        """
        return self.engine.wait_summary()

    @property
    def pending(self) -> int:
        """Buffered requests not yet taken by a flush (dedup'd count)."""
        return self.engine.pending

    @property
    def started(self) -> bool:
        """Whether a background loop (not the caller) flushes."""
        return self._started

    @property
    def closed(self) -> bool:
        return self.engine.closed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SketchServer":
        """Hand flushing to a background loop (idempotent); returns self.

        Already-submitted requests are answered by the loop.
        """
        self.engine.start_loop()
        self._started = True
        self._futures = []
        return self

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain every buffered request, then release the loop and the
        executor.

        Idempotent.  Every future :meth:`submit` returned is resolved
        first; ``submit`` calls after close raise
        :class:`~repro.errors.SketchError`.
        """
        self.engine.close(timeout)
        self._futures = []

    def __enter__(self) -> "SketchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(self, request: Query | str, sketch: str | None = None):
        """Enqueue one request; returns its ``Future[EstimateResponse]``.

        The future resolves at the next :meth:`flush` or, once the
        server is started, within ~``max_wait_ms`` + model time.
        ``sketch`` pins the request to a named sketch; otherwise the
        request is routed to the narrowest registered sketch covering
        its tables (decided at flush time when nothing covers it yet —
        route-at-flush).  Parse failures, result-cache hits and — when
        ``max_queue_depth`` is set — admission-control sheds resolve the
        future immediately; nothing raises through it.
        """
        future = self.engine.submit(request, sketch)
        if not self._started:
            self._futures.append(future)
        return future

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ):
        """Amortized intake: enqueue a whole batch under one engine lock.

        Semantically identical to calling :meth:`submit` per request;
        returns the futures in submission order.
        """
        futures = self.engine.submit_many(list(requests), sketch)
        if not self._started:
            self._futures.extend(futures)
        return futures

    async def submit_async(self, request: Query | str, sketch: str | None = None):
        """``asyncio`` front-end of a started server: await one request
        from an event loop."""
        import asyncio  # only an event loop's caller pays for the import

        return await asyncio.wrap_future(self.submit(request, sketch))

    def estimate(
        self, request: Query | str, sketch: str | None = None
    ) -> EstimateResponse:
        """Blocking one-shot convenience: submit and wait.

        Caller-driven, the wait is a :meth:`flush`, which answers
        *everything* pending on this server (previously submitted
        futures resolve too).
        """
        future = self.submit(request, sketch)
        if not self._started:
            self.flush()
        return future.result()

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """Submit a stream and block for its responses (submission order).

        The stream is answered on the calling thread at once, started or
        not: no timer waits.  The flush takes along whatever else is
        buffered; caller-driven, that is every earlier submit, as
        :meth:`flush` would, so a later :meth:`flush` returns only what
        follows.
        """
        futures = self.submit_many(list(requests), sketch)
        self._futures = []
        self.engine.flush_pending()
        return [future.result() for future in futures]

    def plan(self, request: Query | str, sketch: str | None = None):
        """Join-order advice: one batched estimation round for every
        connected subplan, injected into the DP enumerator.

        Returns a structured
        :class:`~repro.serve.plan.PlanResponse` (never an exception for
        request-level failures).  The subplan batch goes through
        :meth:`serve`, so it is answered on the calling thread at once,
        started or not.
        """
        from .plan import plan_query

        return plan_query(self, request, sketch)

    # ------------------------------------------------------------------
    # the caller-driven answer path
    # ------------------------------------------------------------------
    def flush(self) -> list[EstimateResponse]:
        """Answer every pending request; responses in submission order.

        One engine flush: per-sketch micro-batches of at most
        ``max_batch_size``, all dispatched to the configured executor as
        a single round (so a process executor overlaps them).
        Raises :class:`~repro.errors.SketchError` once the server is
        started: its loop flushes then.
        """
        if self._started:
            raise SketchError("server was started: its background loop flushes")
        futures, self._futures = self._futures, []
        self.engine.flush_pending()
        return [future.result() for future in futures]


__all__ = [
    "EstimateResponse",
    "ServeConfig",
    "ServerStats",
    "SketchServer",
    "answer_chunk",
    "prepare_request",
]
