"""Pluggable micro-batch executors for the estimation engine.

The :class:`~repro.serve.engine.EstimationEngine` owns the request
lifecycle — parse, route, dedup, cache, admission, micro-batching —
and hands each ready micro-batch ("flush job") to an executor.  The
executor's only obligation is: answer every job's responses (estimate
or error, in place) and call ``engine.complete_job(job)`` exactly once
per job so futures resolve and per-waiter accounting happens.  Two
implementations cover the scale spectrum:

* :class:`InlineExecutor` — answers each job on the calling thread
  through the engine's inline chunk path, one after another.  This is
  the pre-engine behavior, bit for bit: same ``estimate_many`` call,
  same cache interaction, same error isolation.  Lowest latency at low
  load; the default.
* :class:`ProcessExecutor` — true multi-core scale-out.  ``workers``
  *slots*, each one long-lived worker process.  A worker holds an
  estimation-only replica per sketch it serves, restored by
  :meth:`DeepSketch.replica <repro.core.sketch.DeepSketch.replica>`
  from the sketch's payload — the arrays and meta its file holds;
  workers never retrain or rebuild samples.  The parent keeps the
  caches: it collapses duplicates before shipping the distinct queries
  (every one of them missed the result cache at submit), and it writes
  the results back into the shared cache so later requests hit without
  crossing a process boundary.
  A sketch generation reaches a worker through a submitted *install
  task* when its ``snapshot_token`` moved — never by restarting the
  worker — so a retrained or re-registered sketch can never be served
  from stale worker weights, and a hot swap costs one chunk and a bit.
  With ``ServeConfig.shm_snapshots`` the install ships a few-KB
  :class:`~repro.serve.shm.SegmentDescriptor` and the worker *maps*
  the parent's shared-memory segment as read-only views instead of
  unpickle-copying it.

Executors are constructed from :class:`~repro.serve.engine.ServeConfig`
via :func:`make_executor` (``config.executor`` by name); unknown names
are rejected at config construction, so the factory never guesses.

Failure behavior: a broken slot (a worker killed by the OOM killer, a
pickling failure) degrades gracefully — only the jobs placed on it
fall back to the inline path in the parent, the slot is discarded and
lazily rebuilt on the next flush, and ``n_executor_fallbacks`` counts
the events.  No future is ever abandoned through any of these paths.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import ProcessPoolExecutor as _ProcessPool

from ..errors import SketchError

#: Valid ``ServeConfig.executor`` values, in escalation order.
EXECUTOR_NAMES = ("inline", "process")


class ChunkExecutor:
    """Interface: answer flush jobs and complete them on the engine."""

    name = "abstract"
    workers = 1

    def run(self, engine, jobs) -> None:
        """Answer every job (in place) and ``engine.complete_job`` each.

        ``jobs`` is a list of :class:`~repro.serve.engine.FlushJob`.
        Implementations must not raise for per-request failures (those
        become error responses); the engine additionally guards the
        whole call so even an executor bug cannot strand a future.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent)."""


class InlineExecutor(ChunkExecutor):
    """The current-thread executor: jobs run serially, bit-identically
    to the pre-engine serving paths."""

    name = "inline"

    def run(self, engine, jobs) -> None:
        for job in jobs:
            engine.run_job_inline(job)


# ----------------------------------------------------------------------
# process scale-out
# ----------------------------------------------------------------------

#: Worker-process registry: sketch name -> restored estimation-only
#: DeepSketch.  Filled by install tasks; module-level so it survives
#: across tasks.  Staleness is managed entirely parent-side (each
#: slot's ``held`` map vs ``snapshot_token``): a stale or dropped
#: sketch means an install or uninstall task, never a worker-side check.
_WORKER_SKETCHES: dict = {}

#: Shared-memory attachments backing shm-shipped sketches, kept so the
#: mapping outlives the install call (sketch name -> AttachedSnapshot).
_WORKER_ATTACHMENTS: dict = {}

#: Worker-side template feature cache.  Workers outlive sketch
#: generations and a one-chunk round lands on the worker that already
#: holds its sketch, so featurization state built for a query template
#: is warm for the next micro-batch.
_WORKER_FEATURE_CACHE = None


def _worker_init() -> None:
    """Slot initializer: runs once in each new worker process."""
    global _WORKER_FEATURE_CACHE
    from .feature_cache import FeatureCache

    _WORKER_FEATURE_CACHE = FeatureCache()


def _worker_install(name: str, payload) -> int:
    """Install task: (re)place one sketch in this worker; returns its pid.

    ``payload`` is the pickled ``(arrays, meta)`` pair of
    :meth:`DeepSketch.to_payload <repro.core.sketch.DeepSketch.to_payload>`
    (the copy path) or a :class:`~repro.serve.shm.SegmentDescriptor`
    (the zero-copy path: attach the parent's segment and restore over
    read-only views).  The previous generation goes first, so a retired
    segment's memory is actually released.
    """
    _worker_uninstall(name)
    if isinstance(payload, bytes):
        from ..core.sketch import DeepSketch

        _WORKER_SKETCHES[name] = DeepSketch.replica(*pickle.loads(payload))
    else:
        from .shm import AttachedSnapshot

        attachment = AttachedSnapshot(payload)
        _WORKER_ATTACHMENTS[name] = attachment
        _WORKER_SKETCHES[name] = attachment.sketch
    return os.getpid()


def _worker_uninstall(name: str) -> None:
    """Uninstall task: drop one sketch's replica and its shm mapping."""
    _WORKER_SKETCHES.pop(name, None)
    attachment = _WORKER_ATTACHMENTS.pop(name, None)
    if attachment is not None:
        attachment.detach()


def _worker_answer(sketch_name: str, queries: list) -> tuple[list, int]:
    """Answer a job's distinct queries in a worker process.

    Runs the engine's inline chunk path
    (:func:`~repro.serve.engine.answer_chunk`) on the worker's replica,
    so error isolation and error codes are the inline path's own.
    Returns ``(results, n_forwards)`` where ``results[i]`` is
    ``(estimate, error message, error code)`` for ``queries[i]``
    (``error`` and ``code`` are ``None`` on success).
    """
    from .engine import EstimateResponse, ServerStats, answer_chunk

    sketch = _WORKER_SKETCHES.get(sketch_name)
    if sketch is None:
        raise RuntimeError(
            f"worker holds no snapshot for sketch {sketch_name!r}; "
            "the parent should have installed it"
        )
    responses = [
        EstimateResponse(request=q, query=q, sketch=sketch_name, estimate=None)
        for q in queries
    ]
    stats = ServerStats()
    answer_chunk(sketch, responses, False, stats, _WORKER_FEATURE_CACHE)
    results = [(r.estimate, r.error, r.code) for r in responses]
    return results, stats.n_forward_batches


class _Slot:
    """One single-worker pool and what the parent knows its worker holds."""

    __slots__ = ("pool", "pid", "held", "jobs", "installs")

    def __init__(self):
        self.pool: _ProcessPool | None = None  # created by the first install
        self.pid: int | None = None
        self.held: dict[str, int] = {}  # sketch name -> installed token
        # Lifetime counts; they survive a rebuild of the worker.
        self.jobs = 0
        self.installs = 0


class ProcessExecutor(ChunkExecutor):
    """Process executor: featurization + forwards across cores.

    ``workers`` *slots*; a slot is one lazily created single-worker
    pool, and the parent records per slot which sketch generations
    (``name -> snapshot_token``) its worker holds.

    * **Install, never rebuild.**  A job for sketch *S* at token *T*
      placed on a slot that does not hold (*S*, *T*) is preceded by an
      install task on that slot.  Workers therefore outlive generation
      changes — ``clear_cache()``, a hot swap, a newly registered
      sketch — together with their warm buffers and feature cache.
    * **Placement from what the round shows** (:meth:`_place`): a
      one-chunk round stays on the slot that holds its sketch, a
      many-chunk round spreads over every slot, and sketches taking
      turns settle on a slot each.  Nothing is configured and nothing
      is remembered beyond what the slots hold.
    * **Only live generations are held.**  Each round first uninstalls
      what the manager no longer serves — dropped names and superseded
      generations — from every slot (worker replica, shm mapping,
      parent bookkeeping) and retires its shipping payload and segment.
    * **Failure containment is per slot.**  A dead worker fails only
      the jobs placed on it over to the inline path; that slot is
      discarded and lazily rebuilt, the other slots keep their workers.

    Slots use ``multiprocessing.get_context()``, so the start method is
    the stdlib's: set it with ``multiprocessing.set_start_method``.
    """

    name = "process"

    def __init__(self, workers: int = 2, use_shm: bool = False):
        self.workers = int(workers)
        self.use_shm = bool(use_shm)
        self._slots = [_Slot() for _ in range(self.workers)]
        #: sketch name -> (token, payload, segment) of its live
        #: generation: the pickled sketch payload, or (shm mode) the
        #: descriptor of the parent-owned SnapshotSegment.  Built once
        #: per generation, shared by every slot that installs it.
        self._shipments: dict[str, tuple] = {}
        self._lock = threading.Lock()

    def slots(self) -> list[dict]:
        """Read-only view of the slots, in index order.

        Per slot: the worker's ``pid`` (``None`` before its first
        install and after a discard), the ``sketches`` it holds
        (``name -> snapshot_token``), and the lifetime number of
        ``jobs`` dispatched to and ``installs`` performed on it.
        """
        with self._lock:
            return [
                {
                    "pid": slot.pid,
                    "sketches": dict(slot.held),
                    "jobs": slot.jobs,
                    "installs": slot.installs,
                }
                for slot in self._slots
            ]

    # -- shipping: one payload (and segment) per live generation --------
    def _payload(self, name: str, sketch, token: int):
        """What an install task ships for the live generation of ``name``.

        Takes the payload of the *exact* sketch object the round is
        answering with (not re-fetched from the manager — a hot swap
        racing the round could otherwise ship the new version recorded
        under the old version's token, producing a mixed-version batch).  The round
        has already retired every superseded shipment
        (:meth:`_release_retired`), so one found here is ``token``'s.
        """
        shipment = self._shipments.get(name)
        if shipment is None:
            if self.use_shm:
                from .shm import SnapshotSegment

                segment = SnapshotSegment.publish(sketch)
                shipment = (token, segment.descriptor, segment)
            else:
                blob = pickle.dumps(
                    sketch.to_payload(), protocol=pickle.HIGHEST_PROTOCOL
                )
                shipment = (token, blob, None)
            self._shipments[name] = shipment
        return shipment[1]

    def _retire(self, name: str) -> None:
        """Forget a generation's payload; unlink its segment.

        POSIX keeps an unlinked segment alive for existing mappings, so
        a worker that still maps it is unaffected and the name is gone
        now.
        """
        _token, _payload, segment = self._shipments.pop(name)
        if segment is not None:
            segment.unlink()

    # -- slot lifecycle -------------------------------------------------
    def _install(self, slot: _Slot, name: str, sketch, token: int) -> None:
        """Make ``slot``'s worker hold (``name``, ``token``)."""
        if slot.held.get(name) == token:
            return
        if slot.pool is None:
            import multiprocessing

            slot.pool = _ProcessPool(
                max_workers=1,
                mp_context=multiprocessing.get_context(),
                initializer=_worker_init,
            )
        payload = self._payload(name, sketch, token)
        slot.pid = slot.pool.submit(_worker_install, name, payload).result()
        slot.held[name] = token
        slot.installs += 1

    def _discard_slot(self, slot: _Slot, wait: bool = False) -> None:
        pool, slot.pool, slot.pid, slot.held = slot.pool, None, None, {}
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def _release_retired(self, engine, fetched: dict) -> None:
        """Uninstall every generation the manager no longer serves.

        ``fetched`` holds the (sketch, token) pairs this round answers
        with; every other held name is looked up now.  A dropped name
        has no live token, so its replicas go from every slot holding
        them — create / drop cycles would otherwise grow the workers
        for ever.
        """
        live = {name: token for name, (_sketch, token) in fetched.items()}
        held = set(self._shipments).union(*(slot.held for slot in self._slots))
        for name in held.difference(live):
            try:
                live[name] = engine.manager.get_sketch(name).snapshot_token
            except SketchError:
                live[name] = None
        for slot in self._slots:
            retired = [n for n, token in slot.held.items() if token != live[n]]
            try:
                for name in retired:
                    slot.pool.submit(_worker_uninstall, name).result()
                    del slot.held[name]
            except Exception:
                self._discard_slot(slot)
        for name in [n for n, s in self._shipments.items() if s[0] != live[n]]:
            self._retire(name)

    def _place(self, name: str, token: int, load: list[int]) -> _Slot:
        """Pick the slot for the next job of a round and count it there.

        Among the slots with the fewest jobs of *this round* (``load``),
        prefer one that already holds (``name``, ``token``), then the
        one holding the fewest sketches, then the lowest index.
        """
        index = min(
            range(self.workers),
            key=lambda i: (
                load[i],
                self._slots[i].held.get(name) != token,
                len(self._slots[i].held),
                i,
            ),
        )
        load[index] += 1
        return self._slots[index]

    # -- the flush path -------------------------------------------------
    def run(self, engine, jobs) -> None:
        from .engine import CODE_ROUTE

        # One fetch per name per round: every job of the round for one
        # sketch is answered by the same object at the same token.
        fetched: dict[str, tuple] = {}
        ready = []
        for job in jobs:
            try:
                if job.sketch not in fetched:
                    sketch = engine.manager.get_sketch(job.sketch)
                    fetched[job.sketch] = (sketch, sketch.snapshot_token)
            except SketchError as exc:
                # Dropped between routing and flushing: same isolation
                # as the inline path.
                for response in job.responses:
                    response.error = str(exc)
                    response.code = CODE_ROUTE
                engine.complete_job(job)
                continue
            ready.append((job, *fetched[job.sketch]))
        dispatched = []
        with self._lock:
            self._release_retired(engine, fetched)
            load = [0] * self.workers
            for job, sketch, token in ready:
                slot = self._place(job.sketch, token, load)
                try:
                    self._install(slot, job.sketch, sketch, token)
                    state = self._dispatch(slot.pool, job, token)
                except Exception:
                    # This slot is broken (worker died, install or
                    # submit failed): contain the damage to its own
                    # jobs and rebuild it lazily.
                    self._discard_slot(slot)
                    engine.count_executor_fallback(1)
                    engine.run_job_inline(job)
                    continue
                slot.jobs += 1
                dispatched.append((job, sketch, slot, state))
        for job, sketch, slot, state in dispatched:
            self._collect(engine, job, sketch, slot, state)

    def _dispatch(self, pool, job, token):
        """Parent-side dedup, then ship the job's distinct queries.

        Mirrors ``DeepSketch.estimate_many``'s batch construction
        (duplicates collapsed onto one entry, distinct queries in
        first-occurrence order) so the worker's micro-batch is the same
        batch the inline path would have run.  Like the inline path, it
        does not consult the result cache: every request here already
        missed it at submit (the engine's fast path).

        Scope note: collapsing is per job.  Duplicates split across two
        jobs of one caller-driven round dispatch before the first job's
        results land in the cache, so they may forward redundantly —
        correct, just not free.  The engine's intake dedup merges
        such duplicates before jobs are formed, which is where
        duplicate-heavy live traffic is expected.
        """
        t0 = time.perf_counter()
        indices: list[int] = []  # per response: its query in distinct
        distinct: list = []
        index_of: dict = {}
        for response in job.responses:
            # Version accounting: this parent-side sketch object (and the
            # worker replica installed under the same token) answers the
            # whole job.
            response.token = token
            index = index_of.get(response.query)
            if index is None:
                index = len(distinct)
                distinct.append(response.query)
                index_of[response.query] = index
            indices.append(index)
        future = pool.submit(_worker_answer, job.sketch, distinct) if distinct else None
        return t0, indices, future

    def _collect(self, engine, job, sketch, slot: _Slot, state) -> None:
        t0, indices, future = state
        use_cache = engine.config.use_cache
        n_forwards = 0
        if future is not None:
            try:
                results, n_forwards = future.result()
            except (Exception, CancelledError):
                # CancelledError is Exception-derived on current
                # CPython, but a sibling job's _discard_slot cancels
                # queued futures — name it so the no-stranded-futures
                # chain survives any future exception-hierarchy move.
                # Worker or transport failure: this job's slot may be
                # broken — discard it and answer the job inline.
                with self._lock:
                    self._discard_slot(slot)
                engine.count_executor_fallback(1)
                # answer_subset records this job's flush latency itself
                # (one observation per job, like every other path).
                engine.answer_subset(job.sketch, job.responses)
                engine.complete_job(job)
                return
            for response, index in zip(job.responses, indices):
                value, error, code = results[index]
                if error is not None:
                    response.error = error
                    response.code = code
                else:
                    response.estimate = value
                    if use_cache:
                        sketch.cache.put(response.query, value)
        engine.merge_chunk_stats(n_forward_batches=n_forwards)
        engine.record_flush_latency(time.perf_counter() - t0)
        engine.complete_job(job)

    def close(self) -> None:
        with self._lock:
            for slot in self._slots:
                self._discard_slot(slot, wait=True)
            for name in list(self._shipments):
                self._retire(name)


def make_executor(config) -> ChunkExecutor:
    """Build the executor named by ``config.executor`` (validated)."""
    if config.executor == "inline":
        return InlineExecutor()
    if config.executor == "process":
        return ProcessExecutor(
            workers=config.executor_workers, use_shm=config.shm_snapshots
        )
    raise SketchError(f"unknown executor {config.executor!r}")  # pragma: no cover


__all__ = [
    "EXECUTOR_NAMES",
    "ChunkExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "make_executor",
]
