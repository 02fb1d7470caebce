"""The estimation engine behind every in-process server.

:class:`EstimationEngine` is the single, transport-agnostic
implementation of the request lifecycle — parse, route, dedup, cache,
batch, flush, scatter — and of every cross-cutting capability on it
(admission control, deadlines, executors, metrics).
:class:`~repro.serve.server.SketchServer` is a thin facade over it that
only decides *who* flushes: the caller (:meth:`flush_pending`) until it
is started, the engine's background loop (:meth:`start_loop`) after.
Intake is the same either way.  A blocking batch (``serve`` and
``plan``) is the exception to the timers: its whole batch is already
in, so it calls :meth:`flush_pending` on a started server too and is
answered on the calling thread at once instead of waiting for the loop.
One flush token keeps the flushers to one at a time, whichever thread
that is.

The lifecycle, in engine terms::

    submit ──> prepare (parse + route, on the calling thread; a query
               that parses but has no covering sketch *yet* is not
               failed — it waits unrouted and is re-routed at flush
               time, so registrations racing the queue still win)
          ──> fast path (a result-cache get answers repeats instantly
               and refreshes their recency)
          ──> dedup (identical in-flight queries share one computation)
          ──> admission (bounded queue: the newcomer is shed on overflow)
          ──> buffer (per-sketch FIFO with flush triggers)
    flush ──> take the flush token (one flusher at a time: the loop, a
               blocking batch caller, or a caller-driven flush)
          ──> take ready chunks (full / timed / idle / drain / forced)
          ──> expire (requests past their deadline_ms resolve as
               structured deadline errors without touching the model)
          ──> execute (the pluggable Executor answers each chunk —
               inline or on a process pool; see repro.serve.executor)
          ──> scatter (futures resolve, per-waiter accounting, caches
               and telemetry update)

**Admission control.**  ``max_queue_depth`` bounds the number of
buffered (pending, not-yet-flushed) computations.  When the bound is
hit, the *new* request is shed: it receives a *structured*
:class:`EstimateResponse` — ``ok`` is false, ``code`` is ``"shed"`` —
at submit time, never an unbounded queue and never an exception
through a future.  Requests past ``deadline_ms`` when their
flush finally happens resolve with ``code="deadline"`` instead of
consuming model time.  ``close()`` still drains every *accepted*
request: shedding happens at the door, never by forgetting.

**Telemetry.**  Every count lives once, in :class:`ServerStats`;
per-chunk flush latency and queueing wait are
:class:`~repro.metrics.LatencySummary` windows.  One :meth:`stats`
call snapshots all of it into a
JSON-friendly dict.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import FeaturizationError, ReproError, SketchError
from ..metrics import LatencySummary
from ..core.manager import SketchManager, SketchTables
from ..db.query import Query
from ..db.sql import as_query
from .executor import EXECUTOR_NAMES, make_executor
from .feature_cache import FeatureCache

#: Recent observations kept by the wait / flush-latency summaries.
LATENCY_WINDOW = 8192

#: ``EstimateResponse.code`` for a request refused by admission control.
CODE_SHED = "shed"
#: ``EstimateResponse.code`` for a request that outlived its
#: ``deadline_ms`` in the queue.
CODE_DEADLINE = "deadline"
#: ``EstimateResponse.code`` for SQL the parser rejected.
CODE_PARSE = "parse"
#: ``EstimateResponse.code`` for a request no registered sketch can
#: serve: uncovered tables, an unknown pinned sketch name, or a sketch
#: dropped between routing and its flush.
CODE_ROUTE = "route"
#: ``EstimateResponse.code`` for a query outside the routed sketch's
#: featurization vocabulary (unknown column/operator/value encoding).
CODE_VOCAB = "vocab"
#: ``EstimateResponse.code`` for an unexpected server-side failure (a
#: bug surfaced by the never-strand-a-future safety nets).
CODE_INTERNAL = "internal"

#: Every ``EstimateResponse.code`` the engine can produce — the wire
#: protocol (:mod:`repro.serve.protocol`) serializes exactly these.
RESPONSE_CODES = (
    CODE_PARSE,
    CODE_ROUTE,
    CODE_VOCAB,
    CODE_SHED,
    CODE_DEADLINE,
    CODE_INTERNAL,
)

#: Reserved buffer key for requests that parsed cleanly but could not
#: be routed at submit time.  They wait in this bucket and are
#: re-routed when their flush fires — so a covering sketch registered
#: between submit and flush still serves them (route-at-flush).  The
#: NUL byte keeps the key out of any legal sketch-name space.
_UNROUTED = "\x00unrouted"


@dataclass(frozen=True)
class ServeConfig:
    """The engine's knobs — one config for every way of serving.

    Batching: ``max_batch_size`` bounds each model micro-batch;
    ``max_wait_ms`` bounds how long the oldest buffered request may
    wait before a partial batch is flushed (background-loop serving);
    ``min_idle_ms`` flushes a quiesced burst early (``None`` disables).

    Execution: ``executor`` picks how micro-batches run — ``"inline"``
    (calling thread, the bit-identical default) or ``"process"``
    (``executor_workers`` long-lived worker processes holding installed
    weight snapshots).
    ``shm_snapshots`` (requires ``executor="process"``) publishes
    snapshots as shared-memory segments that workers map instead of
    unpickle-copy (zero per-worker copies; see ``docs/performance.md``).

    Admission: ``max_queue_depth`` bounds buffered computations
    (``None`` = unbounded); on overflow the newcomer is shed.
    ``deadline_ms`` expires requests that wait longer than this before
    their flush (``None`` = no deadline).

    Caching: ``use_cache`` toggles the per-sketch result cache (and the
    submit-time fast path).  Identical in-flight queries always merge
    onto one computation.

    Every field is validated at construction; bad values raise
    :class:`~repro.errors.SketchError` (a :class:`~repro.errors.ReproError`)
    here rather than misbehaving downstream.
    """

    max_batch_size: int = 256
    max_wait_ms: float = 2.0
    min_idle_ms: float | None = 1.0
    use_cache: bool = True
    executor: str = "inline"
    executor_workers: int = 2
    max_queue_depth: int | None = None
    deadline_ms: float | None = None
    shm_snapshots: bool = False

    def __post_init__(self):
        if self.max_batch_size <= 0:
            raise SketchError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.max_wait_ms <= 0:
            raise SketchError(
                f"max_wait_ms must be positive, got {self.max_wait_ms}"
            )
        if self.min_idle_ms is not None and self.min_idle_ms <= 0:
            raise SketchError(
                f"min_idle_ms must be positive (or None to disable), "
                f"got {self.min_idle_ms}"
            )
        if self.executor not in EXECUTOR_NAMES:
            raise SketchError(
                f"unknown executor {self.executor!r}; "
                f"choose one of {', '.join(EXECUTOR_NAMES)}"
            )
        if self.executor_workers <= 0:
            raise SketchError(
                f"executor_workers must be positive, got {self.executor_workers}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise SketchError(
                f"max_queue_depth must be positive (or None for unbounded), "
                f"got {self.max_queue_depth}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise SketchError(
                f"deadline_ms must be positive (or None to disable), "
                f"got {self.deadline_ms}"
            )
        if self.shm_snapshots and self.executor != "process":
            raise SketchError(
                "shm_snapshots=True requires executor='process' "
                f"(got executor={self.executor!r}); the inline "
                "path already shares the parent's arrays"
            )


@dataclass
class EstimateResponse:
    """Outcome of one served request (exactly one of estimate/error set).

    ``code`` structures *every* failure class so callers (local or over
    the wire) can dispatch without string-matching messages:
    ``"parse"`` (malformed SQL), ``"route"`` (no covering sketch /
    unknown pin / sketch dropped before its flush), ``"vocab"`` (the
    query is outside the routed sketch's featurization vocabulary),
    ``"shed"`` (admission control refused the request),
    ``"deadline"`` (it expired in the queue), and ``"internal"`` (an
    unexpected server-side fault).  ``error`` still carries the
    human-readable message; successful responses keep ``code=None``.

    ``token`` is the ``snapshot_token`` of the sketch *version* that
    produced the answer (stamped by the chunk path and the fast cache
    path), so hot-swap audits can account every response to exactly one
    version.  Responses that never reached a sketch (parse/route/shed/
    deadline) keep ``token=None``.
    """

    request: Query | str
    query: Query | None
    sketch: str | None
    estimate: float | None
    cached: bool = False
    error: str | None = None
    code: str | None = None
    token: int | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def shed(self) -> bool:
        return self.code == CODE_SHED


@dataclass
class ServerStats:
    """Cumulative counters over an engine's lifetime.

    One instance is shared by the engine and the server that drives
    it; ``n_requests == n_answered + n_errors`` at quiescence (shed and
    deadline-missed requests count toward ``n_errors`` and additionally
    toward their own counters).
    """

    n_requests: int = 0
    n_answered: int = 0
    n_errors: int = 0
    n_forward_batches: int = 0
    n_cache_hits: int = 0
    sketch_requests: dict = field(default_factory=dict)  # name -> count
    # intake fast paths
    n_deduped: int = 0          # futures merged onto an in-flight twin
    n_fast_cache_hits: int = 0  # answered at submit time from the cache
    # admission control
    n_shed: int = 0             # refused by admission control
    n_deadline_missed: int = 0  # expired in queue before their flush
    # flush-trigger accounting
    n_flushes: int = 0
    n_flushes_full: int = 0     # triggered by max_batch_size
    n_flushes_timed: int = 0    # triggered by max_wait_ms (or a deadline)
    n_flushes_idle: int = 0     # triggered by min_idle_ms quiescence
    n_flushes_drain: int = 0    # triggered by shutdown drain
    n_flushes_forced: int = 0   # triggered by a caller-driven flush()
    # executor health
    n_executor_fallbacks: int = 0  # jobs degraded to the inline path


def prepare_request(
    sketches: SketchManager | SketchTables, request: Query | str, pinned: str | None
) -> EstimateResponse:
    """Parse and route one request (no model work yet).

    ``sketches`` is the engine's store, or a gateway's fleet table in
    its place; both route by
    :meth:`~repro.core.manager.SketchTables.route_name`.
    Returns a response with ``query`` and ``sketch`` resolved, or with
    ``error`` set: ``code="parse"`` when the SQL is malformed,
    ``code="route"`` when nothing covers the tables or the pinned sketch
    name is unknown.  In the engine a ``code="route"`` outcome is
    *provisional*: intake converts it into a deferred, unrouted pending
    and retries routing at flush time.
    """
    response = EstimateResponse(
        request=request, query=None, sketch=pinned, estimate=None
    )
    try:
        response.query = as_query(request)
    except ReproError as exc:
        response.error = str(exc)
        response.code = CODE_PARSE
        return response
    try:
        if pinned is None:
            response.sketch = sketches.route_name(response.query)
        else:
            sketches.get_sketch(pinned)  # raise early if unknown
    except ReproError as exc:
        response.error = str(exc)
        response.code = CODE_ROUTE
    return response


def answer_chunk(
    sketch,
    chunk: list[EstimateResponse],
    use_cache: bool,
    stats: ServerStats,
    feature_cache=None,
) -> None:
    """Answer one micro-batch in place: a single ``estimate_many`` call.

    The model work behind that call runs on the sketch's compiled
    :class:`~repro.nn.inference.InferenceSession` — the forward alone,
    on pooled buffers, so a serving flush never touches the training
    session (see ``docs/performance.md``).  On a batch-level
    failure (a query can pass routing yet fail featurization — unknown
    column/operator for this sketch's vocabulary) the chunk is retried
    one request at a time so only the offending requests fail.  This is
    the executors' inline chunk path; ``stats`` counters are updated
    for the whole chunk.

    Every request here already missed the result cache at submit (the
    engine's fast path is the one lookup per query), so neither the
    batch nor the retry looks up again; both only store their answers.
    A query cached between submit and flush is recomputed, which is
    correct, just not free.
    """
    queries = [r.query for r in chunk]
    for r in chunk:
        # Version accounting: whatever happens below (batched answer or
        # per-query retry), it is *this* sketch version doing the work.
        r.token = sketch.snapshot_token
    try:
        estimates = sketch.estimate_many(
            queries, use_cache=False, feature_cache=feature_cache
        )
    except ReproError:
        answered: dict = {}
        for r in chunk:
            if r.query in answered:
                # A duplicate in the chunk reuses its twin's retry.
                r.estimate = answered[r.query]
                r.cached = True
                stats.n_cache_hits += 1
                continue
            try:
                r.estimate = sketch.estimate(r.query, use_cache=False)
            except ReproError as exc:
                r.error = str(exc)
                # Featurization failures are the vocabulary class; any
                # other ReproError out of a single-query estimate means
                # this sketch cannot serve this (already-routed) query.
                r.code = (
                    CODE_VOCAB
                    if isinstance(exc, FeaturizationError)
                    else CODE_ROUTE
                )
                continue
            answered[r.query] = r.estimate
            stats.n_forward_batches += 1
            if use_cache:
                sketch.cache.put(r.query, r.estimate)
        return
    if chunk:
        stats.n_forward_batches += 1
    for r, estimate in zip(chunk, estimates):
        r.estimate = float(estimate)
        if use_cache:
            sketch.cache.put(r.query, r.estimate)


class _Pending:
    """One in-flight computation shared by every deduped waiter.

    All waiters hold the *same* future object — deduplication merges a
    request by handing back the twin's future, so a duplicate costs one
    dict lookup and an increment, with no allocation and no extra
    ``set_result`` at resolve time.
    """

    __slots__ = ("response", "future", "waiters", "enqueued_at", "deadline_at")

    def __init__(
        self,
        response: EstimateResponse,
        enqueued_at: float,
        deadline_at: float | None = None,
    ):
        self.response = response
        self.future: Future[EstimateResponse] = Future()
        # Move the future to RUNNING immediately so no waiter can
        # cancel() it: the computation is shared, and a cancelled future
        # would make the flush path's set_result raise InvalidStateError
        # (stranding every other waiter).  An asyncio caller that
        # cancels its await stops waiting without affecting the shared
        # computation.
        self.future.set_running_or_notify_cancel()
        self.waiters = 1
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at


class FlushJob:
    """One taken micro-batch on its way through an executor."""

    __slots__ = ("sketch", "pendings", "responses", "done")

    def __init__(self, sketch: str, pendings: list[_Pending]):
        self.sketch = sketch
        self.pendings = pendings
        self.responses = [p.response for p in pendings]
        self.done = False


class EstimationEngine:
    """One transport-agnostic request lifecycle; see the module docs.

    Thread-safety contract: ``submit``/``submit_many`` may be called
    from any number of threads; all shared state (buffers, dedup map,
    counters) lives under one lock, and the caches the executors touch
    are internally synchronized.  The flush side runs on a caller's
    thread (:meth:`flush_pending`) or on the engine's background loop
    (:meth:`start_loop`); whichever it is, it first takes the one flush
    token, so at most one thread takes and answers a round at a time (a
    process executor's slot bookkeeping assumes a single caller).  :meth:`close` drains every accepted
    request before shutting the executor down, so no future returned by
    ``submit`` is ever abandoned.
    """

    def __init__(
        self,
        manager: SketchManager,
        config: ServeConfig | None = None,
        feature_cache: FeatureCache | None = None,
    ):
        self.manager = manager
        self.config = config or ServeConfig()
        self.counters = ServerStats()
        # ``is None``, not ``or``: an empty shared FeatureCache is falsy
        # (it has a length) and must still be the one this engine fills.
        self.feature_cache = (
            FeatureCache() if feature_cache is None else feature_cache
        )
        self.executor = make_executor(self.config)
        self.flush_latency = LatencySummary(window=LATENCY_WINDOW)
        self.queue_wait = LatencySummary(window=LATENCY_WINDOW)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # sketch name -> FIFO of _Pending awaiting a flush.  Deques:
        # flushes consume from the front, and a list's pop(0)/slice
        # would go quadratic under sustained overload.
        self._buffers: dict[str, deque[_Pending]] = {}
        # sketch name -> monotonic time of the newest arrival (idle trigger)
        self._last_enqueue: dict[str, float] = {}
        # (sketch name, canonical query) -> its buffered _Pending (dedup)
        self._inflight: dict[tuple[str, Query], _Pending] = {}
        self._depth = 0  # buffered computations
        self._depth_high_water = 0  # lifetime peak of _depth
        self._thread: threading.Thread | None = None
        self._closed = False
        # The flush token: whoever holds it takes and answers one round
        # (_take_ready_locked .. _answer_round), so rounds never overlap.
        # Threads waiting for it sleep on _cond; a release notifies.
        self._flushing = False
        # Hot-swap barrier: ids of serving "rounds" (taken flush rounds
        # and intake-time settles) currently resolving futures.  A swap
        # replaces the sketch in the manager under the lock, then waits
        # for every round live *at replace time* to finish before
        # retiring the old version — rounds starting later fetch the new
        # sketch, so they never need waiting on (no starvation under
        # sustained load).
        self._round_ids = itertools.count(1)
        self._active_rounds: set[int] = set()
        self._swap_waiters = 0
        # Swap telemetry, surfaced via stats()/healthz.
        self._swaps = 0
        self._last_swap: dict | None = None
        #: Set by a LifecycleManager watching this engine (see
        #: repro.serve.lifecycle); stats()/healthz read its state().
        self.lifecycle = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def start_loop(self) -> None:
        """Start the background flush loop (idempotent)."""
        with self._lock:
            if self._closed:
                raise SketchError("server is closed")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="sketch-serve-flush", daemon=True
                )
                self._thread.start()

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain every accepted request, then release the executor.

        Idempotent.  With the background loop running, the loop performs
        the drain and is joined; without one (caller-driven), buffered
        requests are flushed on the calling thread.  ``submit`` calls
        observing the closed flag raise :class:`~repro.errors.SketchError`;
        calls that won the race and were accepted are always answered.
        """
        with self._cond:
            already = self._closed
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            if thread.is_alive():
                # The loop is still draining past the join timeout: it
                # owns the executor now and closes it when the drain
                # completes (closing here would yank pools out from
                # under in-flight chunks, or let a respawned pool leak).
                return
        elif not already:
            # No loop thread: drain synchronously on this thread.
            self.flush_pending()
        self.executor.close()

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def _fast_hit(self, response: EstimateResponse) -> tuple[float, int] | None:
        """Submit-time result-cache lookup (a plain ``get``, so a hit
        refreshes the entry's recency right here).

        Returns ``(value, snapshot_token)`` so intake can re-validate
        under the lock that the version read is still the live one —
        a hot swap between this engine-lock-free lookup and the locked
        intake must not let a retired version's cache answer the request.
        """
        if not (response.ok and self.config.use_cache):
            return None
        try:
            sketch = self.manager.get_sketch(response.sketch)
        except SketchError:
            return None  # dropped since routing; the flush will report it
        # Token *before* value: if a clear_cache races in between, the
        # lookup sees the post-clear cache while the token is pre-clear,
        # so intake's re-validation rejects the pair (never the other
        # way around, which would bless a stale value with a live token).
        token = sketch.snapshot_token
        value = sketch.cache.get(response.query)
        if value is None:
            return None
        return value, token

    def submit(
        self,
        request: Query | str,
        sketch: str | None = None,
    ) -> "Future[EstimateResponse]":
        """Enqueue one request; returns a future for its response.

        Parsing and routing happen on the calling thread, so malformed
        SQL resolves immediately with an error response (never an
        exception through the future), as do cache hits and
        admission-control sheds.  A parseable request with no covering
        sketch is *deferred*, not failed: it buffers unrouted and is
        re-routed when its flush fires, so a sketch registered before
        the flush serves it (route-at-flush).  One request is a batch of
        one through :meth:`submit_many`.
        """
        return self.submit_many([request], sketch)[0]

    def submit_many(
        self,
        requests: Sequence[Query | str],
        sketch: str | None = None,
    ) -> "list[Future[EstimateResponse]]":
        """The one intake: enqueue a batch under one lock.

        Parsing, routing and cache lookups happen before the lock is
        taken (:func:`prepare_request`, :meth:`_fast_hit`), all
        buffer/dedup/admission bookkeeping happens inside a single
        critical section, and the flush loop is notified at most once.
        One deliberate difference under ``max_queue_depth``: the batch
        is admitted atomically (the flush side cannot drain mid-batch),
        so a single call larger than the depth bound sheds the batch's
        tail — a batch *is* instantaneous load, and the bound is a
        bound.  Callers replaying a large log against a bounded queue
        should chunk their calls to the depth they want admitted.
        """
        prepared = []
        for request in requests:
            response = prepare_request(self.manager, request, sketch)
            prepared.append((response, self._fast_hit(response)))
        futures: list[Future[EstimateResponse]] = []
        gather: dict = {"resolved": [], "notify": False}
        with self._cond:
            if self._closed:
                raise SketchError("server is closed")
            now = time.monotonic()
            for response, hit in prepared:
                futures.append(self._intake_one_locked(response, hit, now, gather))
            if gather["notify"]:
                self._cond.notify_all()
            round_id = self._begin_round_locked(gather)
        try:
            self._settle_intake(gather)
        finally:
            self._end_round(round_id)
        return futures

    def _intake_one_locked(
        self,
        response: EstimateResponse,
        hit: float | None,
        now: float,
        gather: dict,
    ) -> "Future[EstimateResponse]":
        """The one intake path: stats, fast paths, dedup, admission, buffer.

        Resolved futures are collected into ``gather`` and settled
        *outside* the lock by :meth:`_settle_intake`.
        """
        stats = self.counters
        stats.n_requests += 1
        deferred = (
            not response.ok
            and response.code == CODE_ROUTE
            and response.query is not None
        )
        if deferred:
            # Route-at-flush: the query is well-formed, nothing covers
            # it *yet*.  Clear the provisional error and buffer it under
            # the reserved key; _answer_round re-routes when the flush
            # fires, so a covering sketch registered in the meantime
            # still serves the request.
            response.error = None
            response.code = None
        if not response.ok:
            stats.n_errors += 1
            future: Future[EstimateResponse] = Future()
            gather["resolved"].append((future, response))
            return future
        if not deferred and hit is not None:
            value, hit_token = hit
            try:
                live_token = self.manager.get_sketch(
                    response.sketch
                ).snapshot_token
            except SketchError:
                live_token = None
            if live_token == hit_token:
                response.estimate = float(value)
                response.cached = True
                response.token = hit_token
                stats.n_answered += 1
                stats.n_cache_hits += 1
                stats.n_fast_cache_hits += 1
                self._count_sketch_locked(response.sketch)
                self.queue_wait.observe(0.0)
                future = Future()
                gather["resolved"].append((future, response))
                return future
            # The sketch was swapped or dropped between the lookup and
            # this locked intake: the value read belongs to a retired
            # version.  Fall through as a cache miss so the
            # flush answers it with the live version.
        if not deferred:
            twin = self._inflight.get((response.sketch, response.query))
            if twin is not None and (
                twin.deadline_at is None or now < twin.deadline_at
            ):
                # Merge onto the in-flight twin: the caller gets the
                # twin's own future (identical object for all waiters),
                # and shares the twin's fate — including its deadline;
                # joining a computation seconds before it expires means
                # expiring with it.  Only a twin *already* past its
                # deadline is skipped — it is doomed to a deadline
                # error, while this brand-new request deserves its own
                # (future) deadline; the fresh pending below replaces
                # it in the dedup map.
                twin.waiters += 1
                stats.n_deduped += 1
                return twin.future
        if not self._admit_locked(response):
            future = Future()
            gather["resolved"].append((future, response))
            return future
        deadline_at = (
            None
            if self.config.deadline_ms is None
            else now + self.config.deadline_ms / 1000.0
        )
        pending = _Pending(response, now, deadline_at)
        buffer_key = _UNROUTED if deferred else response.sketch
        buffer = self._buffers.setdefault(buffer_key, deque())
        buffer.append(pending)
        if not deferred:
            self._inflight[(response.sketch, response.query)] = pending
        self._last_enqueue[buffer_key] = now
        self._depth += 1
        if self._depth > self._depth_high_water:
            self._depth_high_water = self._depth
        # Wake the flush loop only when its schedule actually changes: a
        # previously empty buffer needs a deadline, a full one needs an
        # immediate flush.  Intermediate arrivals only push the idle
        # deadline later, which the loop discovers on its own.
        if len(buffer) == 1 or len(buffer) >= self.config.max_batch_size:
            gather["notify"] = True
        return pending.future

    def _settle_intake(self, gather: dict) -> None:
        """Resolve intake-time futures outside the lock."""
        for future, response in gather["resolved"]:
            future.set_result(response)

    # -- hot-swap barrier -------------------------------------------------
    def _begin_round_locked(self, gather: dict | None = None) -> int | None:
        """Register a serving round (flush round or intake settle).

        Must be called under the lock, in the same critical section that
        took the work — otherwise a swap could complete between the take
        and the registration and a retired version's responses would
        resolve after the swap reported done.  With ``gather`` given,
        registration is skipped (returns None) when the intake produced
        nothing to settle.
        """
        if gather is not None and not gather["resolved"]:
            return None
        round_id = next(self._round_ids)
        self._active_rounds.add(round_id)
        return round_id

    def _end_round(self, round_id: int | None, flush: bool = False) -> None:
        """Deregister a round (and, with ``flush``, release the flush
        token); wake the swaps and token waiters that sleep on it."""
        if round_id is None:
            return
        with self._cond:
            self._active_rounds.discard(round_id)
            if flush:
                self._flushing = False
            if flush or self._swap_waiters:
                self._cond.notify_all()

    def swap_sketch(self, name: str, sketch, timeout: float | None = 30.0):
        """Atomically replace a live sketch; return the retired one.

        The swap is the engine's hot-refresh point (used by
        :mod:`repro.serve.lifecycle`): under the engine lock the manager's
        registration is switched to ``sketch``, then the call blocks until
        every serving round that was in flight *at the switch* has
        resolved its futures.  Only then is the old version retired
        (``clear_cache()`` — bumping its snapshot token and dropping its
        result cache), so:

        * zero dropped requests — nothing buffered is touched; pendings
          flushed after the switch are answered by the new version;
        * zero stale answers — submit-time cache lookups re-validate the
          snapshot token under the lock, and rounds starting after the
          switch fetch the new sketch from the manager;
        * exactly-one-version accounting — when this method returns, every
          response produced by the old version has already resolved, so no
          response stamped with the retired token can appear afterwards.

        Rounds starting *after* the switch are not waited on (they serve
        the new version already), so the barrier cannot starve under
        sustained traffic.  Must not be called from the flush loop or an
        executor callback — the barrier would wait on its own round.

        On ``timeout`` (seconds; ``None`` waits forever) a
        :class:`~repro.errors.SketchError` is raised: the new sketch *is*
        installed and serving, but the old version was not retired (its
        cache was left untouched so still-running rounds stay coherent).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._closed:
                raise SketchError("server is closed")
            old = self.manager.replace_sketch(name, sketch)
            barrier = set(self._active_rounds)
            self._swaps += 1
            self._last_swap = {
                "sketch": name,
                "old_token": old.snapshot_token,
                "new_token": sketch.snapshot_token,
                "registry_version": sketch.metadata.get("registry_version"),
                "at": time.time(),
            }
            self._swap_waiters += 1
            try:
                while barrier & self._active_rounds:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise SketchError(
                            f"swap of {name!r} timed out after {timeout:g}s "
                            f"waiting for {len(barrier & self._active_rounds)} "
                            "in-flight serving round(s); the new version is "
                            "installed but the old one was not retired"
                        )
                    self._cond.wait(timeout=remaining)
            finally:
                self._swap_waiters -= 1
        # Retire outside the lock: bumping the old token / clearing its
        # caches is only safe once no round can still hold the object.
        old.clear_cache()
        return old

    def _drop_inflight_locked(self, pending: _Pending) -> None:
        """Remove ``pending`` from the dedup map — only if the entry is
        actually *its*.  An expired twin's key may already point at the
        fresh pending that replaced it; popping blindly would strip the
        replacement's entry and silently stop deduplicating that query.
        """
        key = (pending.response.sketch, pending.response.query)
        if self._inflight.get(key) is pending:
            del self._inflight[key]

    # -- admission control ----------------------------------------------
    def _admit_locked(self, response: EstimateResponse) -> bool:
        """Apply ``max_queue_depth``: shed the newcomer on overflow."""
        limit = self.config.max_queue_depth
        if limit is None or self._depth < limit:
            return True
        response.error = (
            f"request shed: queue depth {self._depth} >= "
            f"max_queue_depth {limit}"
        )
        response.code = CODE_SHED
        self.counters.n_shed += 1
        self.counters.n_errors += 1
        return False

    # ------------------------------------------------------------------
    # bookkeeping shared with executors
    # ------------------------------------------------------------------
    def _count_sketch_locked(self, name: str, n: int = 1) -> None:
        self.counters.sketch_requests[name] = (
            self.counters.sketch_requests.get(name, 0) + n
        )

    def record_flush_latency(self, seconds: float) -> None:
        self.flush_latency.observe(seconds)

    def merge_chunk_stats(
        self, n_forward_batches: int = 0, n_cache_hits: int = 0
    ) -> None:
        with self._lock:
            self.counters.n_forward_batches += n_forward_batches
            self.counters.n_cache_hits += n_cache_hits

    def count_executor_fallback(self, n: int = 1) -> None:
        with self._lock:
            self.counters.n_executor_fallbacks += n

    def answer_subset(self, sketch_name: str, responses: list) -> None:
        """Answer ``responses`` through the inline chunk path (no
        completion) — the executors' degraded/fallback building block."""
        if not responses:
            return
        local = ServerStats()
        t0 = time.perf_counter()
        try:
            sketch = self.manager.get_sketch(sketch_name)
        except SketchError as exc:
            # The sketch was dropped between routing and flushing.
            for response in responses:
                if response.ok and response.estimate is None:
                    response.error = str(exc)
                    response.code = CODE_ROUTE
        else:
            try:
                answer_chunk(
                    sketch,
                    responses,
                    use_cache=self.config.use_cache,
                    stats=local,
                    feature_cache=self.feature_cache,
                )
            except Exception as exc:  # never strand a future on a bug
                for response in responses:
                    if response.ok and response.estimate is None:
                        response.error = f"internal serving error: {exc!r}"
                        response.code = CODE_INTERNAL
        self.merge_chunk_stats(local.n_forward_batches, local.n_cache_hits)
        self.record_flush_latency(time.perf_counter() - t0)

    def run_job_inline(self, job: FlushJob) -> None:
        """Answer one flush job on the calling thread and complete it."""
        self.answer_subset(job.sketch, job.responses)
        self.complete_job(job)

    def complete_job(self, job: FlushJob) -> None:
        """Per-waiter accounting, then resolve the job's futures.

        Idempotent (executor fallbacks may overlap responsibility); the
        engine also calls it as a safety net after an executor round so
        an executor bug can never strand a future.
        """
        with self._lock:
            if job.done:
                return
            job.done = True
            for pending in job.pendings:
                # Count every waiter, not every computation, so
                # n_requests == n_answered + n_errors at quiescence even
                # with dedup merging futures.
                if pending.response.ok:
                    self.counters.n_answered += pending.waiters
                else:
                    self.counters.n_errors += pending.waiters
                self._count_sketch_locked(job.sketch, pending.waiters)
        for pending in job.pendings:
            pending.future.set_result(pending.response)

    # ------------------------------------------------------------------
    # the flush side
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Buffered computations not yet taken by a flush (dedup'd)."""
        with self._lock:
            return self._depth

    def flush_pending(self) -> None:
        """Take and answer everything buffered, on the calling thread.

        The caller-driven flush, and a blocking batch's on a started
        server too.  It first takes the flush token, sleeping on the
        engine's condition while the loop or another caller holds it;
        with nothing left to take it returns without it.  All ready
        chunks of one call form a single executor round (counted
        ``forced``), so a process executor overlaps them across workers.
        """
        with self._cond:
            while self._flushing:
                self._cond.wait()
            taken = self._take_ready_locked(time.monotonic(), force=True)
            if not taken:
                return
            self._flushing = True
            round_id = self._begin_round_locked()
        try:
            self._answer_round(taken)
        finally:
            self._end_round(round_id, flush=True)

    def _run(self) -> None:
        """The background flush loop (a started server)."""
        drained = False
        while not drained:
            try:
                with self._cond:
                    batches = None
                    round_id = None
                    while True:
                        if self._flushing:
                            # A caller's round: its end wakes us, and
                            # the buffers may look different by then.
                            self._cond.wait()
                            continue
                        now = time.monotonic()
                        batches = self._take_ready_locked(now)
                        if batches:
                            self._flushing = True
                            round_id = self._begin_round_locked()
                            break
                        if self._closed:
                            # Drained: buffers are empty (a closed take
                            # grabs everything) and no caller's round is
                            # still using the executor, so the loop is done.
                            drained = True
                            break
                        self._cond.wait(
                            timeout=self._next_deadline_locked(now)
                        )
                if drained:
                    break
                try:
                    self._answer_round(batches)
                finally:
                    self._end_round(round_id, flush=True)
            except Exception:
                # The loop IS the no-stranded-futures contract: an
                # unexpected error (say, a duck-typed feature cache
                # missing a method) must not kill the thread and leave
                # buffered futures unresolved forever.  Back off
                # briefly so a persistent fault cannot hot-spin, and
                # keep draining.
                time.sleep(0.05)
        # The drain is complete; release the executor from here so a
        # close() that timed out waiting for this loop never races its
        # pools (executor close is idempotent — the normal close() path
        # also calls it after joining us).
        self.executor.close()

    def _next_deadline_locked(self, now: float) -> float | None:
        """Seconds until some buffer's wait/idle/deadline trigger fires."""
        min_idle_s = (
            None
            if self.config.min_idle_ms is None
            else self.config.min_idle_ms / 1000.0
        )
        deadlines = []
        for name, buffer in self._buffers.items():
            if not buffer:
                continue
            head = buffer[0]
            deadline = head.enqueued_at + self.config.max_wait_ms / 1000.0
            if min_idle_s is not None:
                deadline = min(deadline, self._last_enqueue[name] + min_idle_s)
            if head.deadline_at is not None:
                deadline = min(deadline, head.deadline_at)
            deadlines.append(deadline)
        if not deadlines:
            return None
        return max(min(deadlines) - now, 0.0)

    def _take_ready_locked(
        self, now: float, force: bool = False
    ) -> list[tuple[str, str, list[_Pending]]]:
        """Pop every chunk whose flush trigger has fired.

        Returns ``(sketch name, trigger, chunk)`` triples.  Taken
        requests leave the dedup map immediately: a duplicate arriving
        while the batch is being answered becomes a fresh pending
        request (and, with caching on, a cache hit at its own submit or
        flush time) rather than attaching to a computation whose
        futures may already be resolving.  A buffer holding several
        ``max_batch_size`` chunks yields them all in one round so a
        process executor can overlap them.
        """
        max_batch = self.config.max_batch_size
        max_wait_s = self.config.max_wait_ms / 1000.0
        min_idle_s = (
            None
            if self.config.min_idle_ms is None
            else self.config.min_idle_ms / 1000.0
        )
        taken: list[tuple[str, str, list[_Pending]]] = []
        for name in list(self._buffers):
            buffer = self._buffers[name]
            if not buffer:
                del self._buffers[name]
                self._last_enqueue.pop(name, None)
                continue
            head = buffer[0]
            full = len(buffer) >= max_batch
            timed = now - head.enqueued_at >= max_wait_s or (
                head.deadline_at is not None and now >= head.deadline_at
            )
            idle = (
                min_idle_s is not None
                and now - self._last_enqueue[name] >= min_idle_s
            )
            if not (full or timed or idle or force or self._closed):
                continue
            # Everything goes when any non-size trigger fired; a pure
            # size trigger takes only the complete chunks and leaves the
            # tail to its own wait/idle deadline.
            take_all = timed or idle or force or self._closed
            chunks: list[list[_Pending]] = []
            while len(buffer) >= max_batch:
                chunks.append([buffer.popleft() for _ in range(max_batch)])
            if buffer and take_all:
                chunks.append(list(buffer))
                buffer.clear()
            if not buffer:
                del self._buffers[name]
                self._last_enqueue.pop(name, None)
            for chunk in chunks:
                # Ownership beats timing: a close() drain or a
                # caller-driven flush is counted as such even when the
                # buffer head had also outwaited max_wait_ms (a sync
                # caller almost always flushes later than the async
                # deadline, and those flushes are not "timed").
                if len(chunk) >= max_batch:
                    trigger = "full"
                elif self._closed:
                    trigger = "drain"
                elif force:
                    trigger = "forced"
                elif timed:
                    trigger = "timed"
                else:
                    trigger = "idle"
                self.counters.n_flushes += 1
                setattr(
                    self.counters,
                    f"n_flushes_{trigger}",
                    getattr(self.counters, f"n_flushes_{trigger}") + 1,
                )
                self._depth -= len(chunk)
                for pending in chunk:
                    self.queue_wait.observe(now - pending.enqueued_at)
                    self._drop_inflight_locked(pending)
                taken.append((name, trigger, chunk))
        return taken

    def _reroute(self, response: EstimateResponse) -> str | None:
        """Second routing attempt, at flush time, for a deferred request.

        Returns the serving sketch's name, or marks the response with
        ``code="route"`` and returns None when routing still fails.  A
        pinned request (``response.sketch`` already set) re-checks the
        pin; an unpinned one re-runs narrowest-cover routing.
        """
        try:
            if response.sketch is not None:
                self.manager.get_sketch(response.sketch)  # pin now known?
                return response.sketch
            response.sketch = self.manager.route_name(response.query)
            return response.sketch
        except ReproError as exc:
            response.error = str(exc)
            response.code = CODE_ROUTE
            return None

    def _answer_round(
        self, taken: list[tuple[str, str, list[_Pending]]]
    ) -> None:
        """Expire, execute, and resolve one round of taken chunks."""
        if not taken:
            return
        now = time.monotonic()
        jobs: list[FlushJob] = []
        expired: list[tuple[str, _Pending]] = []
        unroutable: list[_Pending] = []
        for name, _trigger, chunk in taken:
            live = []
            for pending in chunk:
                if pending.deadline_at is not None and now >= pending.deadline_at:
                    expired.append((name, pending))
                else:
                    live.append(pending)
            if not live:
                continue
            if name == _UNROUTED:
                # Route-at-flush: requests that had no covering sketch
                # at submit time get their route decided *now*, so a
                # sketch registered since then serves them.
                routed: dict[str, list[_Pending]] = {}
                for pending in live:
                    target = self._reroute(pending.response)
                    if target is None:
                        unroutable.append(pending)
                    else:
                        routed.setdefault(target, []).append(pending)
                for target, group in routed.items():
                    jobs.append(FlushJob(target, group))
            else:
                jobs.append(FlushJob(name, live))
        if unroutable:
            with self._lock:
                for pending in unroutable:
                    self.counters.n_errors += pending.waiters
            for pending in unroutable:
                pending.future.set_result(pending.response)
        if expired:
            with self._lock:
                for _name, pending in expired:
                    response = pending.response
                    response.error = (
                        f"deadline of {self.config.deadline_ms:g}ms exceeded "
                        "before the request could be served"
                    )
                    response.code = CODE_DEADLINE
                    self.counters.n_deadline_missed += pending.waiters
                    self.counters.n_errors += pending.waiters
            for _name, pending in expired:
                pending.future.set_result(pending.response)
        if not jobs:
            return
        try:
            self.executor.run(self, jobs)
        except Exception as exc:  # never strand a future on a bug
            for job in jobs:
                for response in job.responses:
                    if response.ok and response.estimate is None:
                        response.error = f"internal serving error: {exc!r}"
                        response.code = CODE_INTERNAL
        # Safety net: an executor must complete every job, but a buggy
        # or interrupted one must not cost a caller their future.
        for job in jobs:
            self.complete_job(job)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def wait_summary(self) -> dict[str, float]:
        """Queueing-wait percentiles (seconds) over the recent window.

        The wait is submit-to-flush-start — the part of latency the
        ``max_wait_ms`` trigger bounds; model time is excluded.  Fast
        cache hits count as zero wait.
        """
        return self.queue_wait.summary()

    def stats(self) -> dict:
        """One JSON-friendly snapshot of the whole engine — the single
        telemetry call behind every ``stats_summary()``.

        Combines the cumulative :class:`ServerStats` counters and the
        queue depth with the p50/p95/p99 flush-latency and queue-wait
        summaries.
        """
        c = self.counters
        with self._lock:
            sketch_requests = dict(c.sketch_requests)
            depth = self._depth
            depth_peak = self._depth_high_water
            swaps = self._swaps
            last_swap = None if self._last_swap is None else dict(self._last_swap)
        lifecycle = self.lifecycle
        return {
            "executor": self.executor.name,
            "executor_workers": self.executor.workers,
            "queue_depth": depth,
            "queue_depth_peak": depth_peak,
            "max_queue_depth": self.config.max_queue_depth,
            "requests": c.n_requests,
            "answered": c.n_answered,
            "errors": c.n_errors,
            "shed": c.n_shed,
            "deadline_missed": c.n_deadline_missed,
            "cache_hits": c.n_cache_hits,
            "fast_cache_hits": c.n_fast_cache_hits,
            "deduped": c.n_deduped,
            "forward_batches": c.n_forward_batches,
            "executor_fallbacks": c.n_executor_fallbacks,
            "flushes": {
                "total": c.n_flushes,
                "full": c.n_flushes_full,
                "timed": c.n_flushes_timed,
                "idle": c.n_flushes_idle,
                "drain": c.n_flushes_drain,
                "forced": c.n_flushes_forced,
            },
            "flush_latency": self.flush_latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "sketch_requests": sketch_requests,
            # sketch lifecycle (hot swaps, versions, background manager)
            "swaps": swaps,
            "last_swap": last_swap,
            "versions": self.describe_versions(),
            "lifecycle": None if lifecycle is None else lifecycle.state(),
        }

    def describe_versions(self) -> dict:
        """name -> {token, registry_version} for every live sketch.

        ``token`` is the process-local snapshot token (NOT comparable
        across processes); ``registry_version`` is the fleet-comparable
        version stamped by :class:`~repro.serve.registry.SketchRegistry`
        at save time (None for sketches never saved to a registry).
        """
        versions: dict[str, dict] = {}
        for name in self.manager.list_sketches():
            try:
                sketch = self.manager.get_sketch(name)
            except SketchError:
                continue  # dropped while iterating
            versions[name] = {
                "token": sketch.snapshot_token,
                "registry_version": sketch.metadata.get("registry_version"),
            }
        return versions

    def __repr__(self) -> str:
        return (
            f"EstimationEngine(executor={self.executor.name!r}, "
            f"pending={self.pending}, closed={self._closed})"
        )


__all__ = [
    "CODE_DEADLINE",
    "CODE_INTERNAL",
    "CODE_PARSE",
    "CODE_ROUTE",
    "CODE_SHED",
    "CODE_VOCAB",
    "RESPONSE_CODES",
    "EstimateResponse",
    "EstimationEngine",
    "FlushJob",
    "ServeConfig",
    "ServerStats",
    "answer_chunk",
    "prepare_request",
]
