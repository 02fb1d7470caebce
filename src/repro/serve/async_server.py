"""Asynchronous, latency-bounded serving facade over the estimation engine.

One of the three :class:`~repro.serve.service.SketchService`
implementations (with the sync facade and the
:class:`~repro.serve.client.RemoteSketchServer` SDK).
:class:`~repro.serve.server.SketchServer` batches well but only flushes
when a caller asks — fine for offline streams, wrong for live traffic
where many independent clients each hold one request and nobody sees
the whole stream.  :class:`AsyncSketchServer` closes that gap by
driving the same :class:`~repro.serve.engine.EstimationEngine` from a
background flush loop:

* ``submit()`` is thread-safe and returns a
  :class:`concurrent.futures.Future` immediately; any number of client
  threads can submit concurrently.  ``submit_async()`` is the
  ``asyncio`` front-end (awaitable from an event loop), and
  ``submit_many()`` amortizes intake for a client holding a batch.
* The engine buffers requests **per sketch** and the loop flushes each
  buffer under the engine's triggers: full (``max_batch_size``), timed
  (``max_wait_ms``), idle (``min_idle_ms`` quiescence), and drain
  (close).  Queueing delay is bounded by ``max_wait_ms`` regardless of
  load, while one flush is shared by every waiting client.
* **Admission control and deadlines** are engine features and therefore
  apply here exactly as on the sync facade: with ``max_queue_depth``
  set, overload resolves futures *at submit time* with structured
  ``code="shed"`` responses (policy ``"reject"``) or evicts the
  longest-waiting request (``"oldest"``); requests older than
  ``deadline_ms`` at flush time resolve with ``code="deadline"``
  instead of consuming model time.
* **Cross-sketch deduplication** merges identical in-flight canonical
  queries onto a single pending computation — every waiter receives
  the *same* future and the *same* response object — and estimate-cache
  hits are answered directly on the submitting thread (a read-only
  ``peek``; the flush side replays recency), so a repeated query never
  waits for a batch at all.
* The engine's **executor** decides where micro-batches run: inline on
  the flush loop (default), across a thread pool, or across a process
  pool of shipped weight snapshots (see :mod:`repro.serve.executor`).

Numerical behavior is identical to the synchronous facade: both drive
the same engine and the same
:func:`~repro.serve.engine.answer_chunk` pipeline — and therefore each
sketch's compiled :class:`~repro.nn.inference.InferenceSession` — so
estimates match ``DeepSketch.estimate`` to within the few-ULP BLAS
rounding documented in ``docs/serving.md`` § *Numerical parity caveat*.

Typical use::

    server = AsyncSketchServer(manager, ServeConfig(max_wait_ms=2.0))
    with server:                        # starts the flush loop
        future = server.submit("SELECT COUNT(*) FROM title t ...")
        response = future.result()      # resolves within ~max_wait_ms
    # leaving the context drains every buffered request, then stops
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Sequence

from ..workload.query import Query
from ..demo.manager import SketchManager
from .engine import EstimationEngine, ServeConfig, ServerStats
from .feature_cache import FeatureCache


class AsyncSketchServer:
    """Latency-bounded concurrent serving over a :class:`SketchManager`.

    A thin facade: all lifecycle logic lives in the engine.  The flush
    loop is a daemon thread started lazily on first submit (or
    explicitly via :meth:`start`); :meth:`close` — or leaving the
    server's context manager — drains every buffered request before
    stopping, so no accepted future is ever abandoned.

    Telemetry: :attr:`stats` is the raw counter block; :meth:`stats_summary`
    is the engine's one-call snapshot, identical in shape to the sync
    facade's.
    """

    def __init__(
        self,
        manager: SketchManager,
        config: ServeConfig | None = None,
        feature_cache: FeatureCache | None = None,
    ):
        self.engine = EstimationEngine(
            manager, config or ServeConfig(), feature_cache
        )

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
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncSketchServer":
        """Start the background flush loop (idempotent)."""
        self.engine.start_loop()
        return self

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain every buffered request, then stop the flush loop.

        Idempotent.  Futures already returned by :meth:`submit` are all
        resolved before the loop exits; ``submit`` calls after close
        raise :class:`~repro.errors.SketchError`.
        """
        self.engine.close(timeout)

    def __enter__(self) -> "AsyncSketchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self.engine.closed

    @property
    def pending(self) -> int:
        """Buffered requests not yet taken by a flush (dedup'd count)."""
        return self.engine.pending

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(self, request: Query | str, sketch: str | None = None):
        """Enqueue one request; resolves within ~``max_wait_ms`` + model time.

        Parsing and routing happen on the calling thread, so malformed
        SQL resolves immediately with an error response (never an
        exception through the future), as do cache hits (no batching
        wait) and admission-control sheds (structured ``code="shed"``
        responses instead of unbounded queueing).  A parseable request
        with no covering sketch yet is deferred and re-routed at flush
        time (route-at-flush), so late registrations still win.
        """
        return self.engine.submit(request, sketch, ensure_loop=True)

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ):
        """Amortized intake: enqueue a whole batch under one lock.

        Semantically identical to calling :meth:`submit` per request;
        this is the efficient entry point for a client that holds many
        requests (a replayed log, a fan-in gateway).
        """
        return self.engine.submit_many(list(requests), sketch, ensure_loop=True)

    async def submit_async(self, request: Query | str, sketch: str | None = None):
        """``asyncio`` front-end: await one request from an event loop."""
        return await asyncio.wrap_future(self.submit(request, sketch))

    def estimate(self, request: Query | str, sketch: str | None = None):
        """Blocking one-shot convenience: submit and wait for the
        response (resolves within ~``max_wait_ms`` + model time)."""
        return self.submit(request, sketch).result()

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ):
        """Submit a stream and block for all responses (submission order)."""
        futures = self.submit_many(list(requests), sketch)
        return [future.result() for future in futures]

    def plan(self, request: Query | str, sketch: str | None = None):
        """Join-order advice: every connected subplan estimated as one
        ``submit_many`` batch (resolved by the background loop), the
        answers injected into the DP enumerator.  Returns a structured
        :class:`~repro.serve.plan.PlanResponse`."""
        from .plan import plan_query

        return plan_query(self, request, sketch)

    # ------------------------------------------------------------------
    # latency accounting
    # ------------------------------------------------------------------
    def wait_summary(self) -> dict[str, float]:
        """Queueing-wait percentiles (seconds) over the recent window.

        The wait is submit-to-flush-start — the part of latency the
        ``max_wait_ms`` trigger bounds; model time is excluded.  Fast
        cache hits count as zero wait.
        """
        return self.engine.wait_summary()


__all__ = ["AsyncSketchServer"]
