"""Serving measurement harness (shared by CLI and benchmark scripts).

Two scenarios live here.  :func:`run_serving_benchmark` compares three
ways of answering the same workload with one sketch:

* the **single-query loop** — ``sketch.estimate(q, use_cache=False)``
  per query, the seed repository's only path;
* the **vectorized batch** — ``sketch.estimate_many(..., use_cache=False)``
  on the distinct queries (isolates the pure batching win: shared
  predicate masks, shared featurization rows, one forward pass);
* the **serving engine** — a :class:`~repro.serve.server.SketchServer`
  flush over the full stream with micro-batching and the LRU cache
  (what production traffic would see; repeated queries hit the cache).

:func:`run_concurrent_benchmark` measures the asynchronous engine
(:class:`~repro.serve.async_server.AsyncSketchServer`) under concurrent
clients: a high-load phase (N client threads firing the stream through
``submit``) for throughput and client-observed latency percentiles, and
a low-load phase (one closed-loop client) showing the ``max_wait_ms``
bound on queueing delay.

Estimates from every path are compared for numerical identity.  Batched
BLAS kernels may round differently from single-row kernels by a few
ULPs (batch-size-invariant bitwise output is not a guarantee any tensor
runtime makes), so "identical" here means a maximum relative difference
below ``IDENTITY_RTOL`` — observed values are ~1e-15, i.e. the noise of
one double-precision rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ReproError
from ..workload.query import Query
from .server import ServeConfig, SketchServer

#: Maximum relative difference tolerated between the single-query and
#: batched paths before the benchmark declares them non-identical.
IDENTITY_RTOL = 1e-9

#: The ``--tiny`` smoke configuration shared by ``repro bench-serve``
#: and ``benchmarks/bench_serving.py``: small enough for CI seconds,
#: large enough to exercise batching, routing, and the cache.
TINY_BENCH_ARGS = {
    "scale": 0.05,
    "queries": 300,
    "epochs": 2,
    "samples": 50,
    "hidden": 16,
    "distinct": 12,
    "batch": 64,
}


def apply_tiny_args(args) -> None:
    """Overwrite an argparse namespace with the tiny smoke configuration."""
    for key, value in TINY_BENCH_ARGS.items():
        setattr(args, key, value)


@dataclass
class ServingBenchResult:
    """Headline numbers of one serving benchmark run."""

    n_queries: int
    n_distinct: int
    single_seconds: float
    vector_seconds: float
    served_seconds: float
    max_rel_diff_vector: float
    max_rel_diff_served: float
    n_forward_batches: int
    n_cache_hits: int
    n_errors: int = 0

    @property
    def all_failed(self) -> bool:
        """Every served request errored — the result is meaningless."""
        return self.n_queries > 0 and self.n_errors >= self.n_queries

    @property
    def single_qps(self) -> float:
        return self.n_queries / self.single_seconds

    @property
    def vector_qps(self) -> float:
        return self.n_distinct / self.vector_seconds

    @property
    def served_qps(self) -> float:
        return self.n_queries / self.served_seconds

    @property
    def vector_speedup(self) -> float:
        """Per-query speedup of the vectorized path on distinct queries."""
        per_single = self.single_seconds / self.n_queries
        per_vector = self.vector_seconds / self.n_distinct
        return per_single / per_vector

    @property
    def served_speedup(self) -> float:
        return self.single_seconds / self.served_seconds

    @property
    def identical(self) -> bool:
        return (
            self.max_rel_diff_vector <= IDENTITY_RTOL
            and self.max_rel_diff_served <= IDENTITY_RTOL
        )

    def report(self) -> str:
        lines = [
            f"workload          : {self.n_queries} queries "
            f"({self.n_distinct} distinct)",
            f"single-query loop : {self.single_seconds:8.3f}s "
            f"({self.single_qps:10.0f} q/s)",
            f"vectorized batch  : {self.vector_seconds:8.3f}s "
            f"({self.vector_qps:10.0f} q/s on distinct, "
            f"{self.vector_speedup:5.1f}x per query)",
            f"sketch server     : {self.served_seconds:8.3f}s "
            f"({self.served_qps:10.0f} q/s, {self.served_speedup:5.1f}x)",
            f"forward batches   : {self.n_forward_batches} "
            f"(cache hits: {self.n_cache_hits}, errors: {self.n_errors})",
            f"max rel. diff     : vectorized {self.max_rel_diff_vector:.2e}, "
            f"served {self.max_rel_diff_served:.2e} "
            f"({'identical' if self.identical else 'NOT identical'} at "
            f"rtol={IDENTITY_RTOL:.0e})",
        ]
        return "\n".join(lines)


def tile_workload(queries: Sequence[Query], size: int) -> list[Query]:
    """Repeat a distinct workload round-robin up to ``size`` requests.

    Serving traffic repeats queries (dashboards, retried transactions,
    popular templates); tiling a JOB-light-style workload to the target
    batch size models that while keeping every distinct query in play.
    """
    if not queries:
        return []
    return [queries[i % len(queries)] for i in range(size)]


def _estimate_or_nan(sketch, query: Query) -> float:
    """Uncached single estimate; NaN when the sketch rejects the query."""
    try:
        return sketch.estimate(query, use_cache=False)
    except ReproError:
        return float("nan")


def _max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative difference of ``a`` against the reference ``b``.

    Positions where the *reference* is NaN are excused (the query fails
    the single-query path too, so there is nothing to compare).  A NaN
    in ``a`` where the reference is finite is a divergence, not an
    excuse — it returns ``inf`` so the identity gate fails loudly
    instead of silently masking a broken batched path.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    mask = np.isfinite(b)
    if not mask.any():
        return 0.0
    a, b = a[mask], b[mask]
    if not np.isfinite(a).all():
        return float("inf")
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def run_serving_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    batch_size: int = 512,
    max_batch_size: int = 256,
    executor: str = "inline",
    executor_workers: int = 2,
) -> ServingBenchResult:
    """Measure single-query vs batched serving on ``queries``.

    ``queries`` are the distinct workload; they are tiled round-robin to
    ``batch_size`` requests.  The sketch's cache is cleared before each
    timed pass so no path benefits from earlier passes.  ``executor``
    selects where the serving engine runs its micro-batches (see
    :mod:`repro.serve.executor`).
    """
    sketch = manager.get_sketch(sketch_name)
    workload = tile_workload(list(queries), batch_size)
    distinct = list(dict.fromkeys(workload))

    # Pass 1: the seed path — one estimate() per request, no caching.
    # A failing query yields NaN (excluded from the identity check)
    # instead of aborting the run: the serving passes isolate the same
    # failures per request, and the caller reports the error count.
    sketch.clear_cache()
    t0 = time.perf_counter()
    single = np.array([_estimate_or_nan(sketch, q) for q in workload])
    single_seconds = time.perf_counter() - t0

    # Pass 2: vectorized batch over the distinct queries, cache off.
    sketch.clear_cache()
    t0 = time.perf_counter()
    try:
        vector = sketch.estimate_many(distinct, use_cache=False)
    except ReproError:
        vector = np.array([_estimate_or_nan(sketch, q) for q in distinct])
    vector_seconds = time.perf_counter() - t0

    # Pass 3: the serving engine over the full stream, cold cache.
    sketch.clear_cache()
    server = SketchServer(
        manager,
        ServeConfig(
            max_batch_size=max_batch_size,
            use_cache=True,
            executor=executor,
            executor_workers=executor_workers,
        ),
    )
    t0 = time.perf_counter()
    responses = server.serve(workload, sketch=sketch_name)
    served_seconds = time.perf_counter() - t0
    server.close()
    # Errors are isolated per request by the server; they are *counted*
    # here (and surfaced in the report / exit code by the callers)
    # rather than aborting the run, and identity is checked over the
    # requests that were actually answered.
    ok = np.array([r.ok for r in responses], dtype=bool)
    served = np.array([r.estimate if r.ok else np.nan for r in responses])

    single_by_query = {q: e for q, e in zip(workload, single)}
    vector_expected = np.array([single_by_query[q] for q in distinct])
    return ServingBenchResult(
        n_queries=len(workload),
        n_distinct=len(distinct),
        single_seconds=single_seconds,
        vector_seconds=vector_seconds,
        served_seconds=served_seconds,
        max_rel_diff_vector=_max_rel_diff(vector, vector_expected),
        max_rel_diff_served=_max_rel_diff(served, single),
        n_forward_batches=server.stats.n_forward_batches,
        n_cache_hits=server.stats.n_cache_hits,
        n_errors=int((~ok).sum()),
    )


# ----------------------------------------------------------------------
# concurrent-client scenario (the asynchronous engine)
# ----------------------------------------------------------------------

@dataclass
class ConcurrentBenchResult:
    """Headline numbers of one concurrent serving benchmark run.

    Three synchronous baselines are measured (the sync server is not
    thread-safe, so concurrent clients must serialize around a mutex):

    * ``sync_request_seconds`` — live-traffic reality: each client
      holds one request at a time and flushes it alone
      (``serve([q])`` under the mutex).  This is what the PR-1 engine
      gives concurrent traffic, and the comparison the throughput gate
      uses: no cross-client batching without the async machinery.
    * ``sync_chunked_seconds`` — each client flushes its whole
      round-robin share in one call: only possible when clients own
      request batches up front (log replay, not live traffic).
    * ``sync_single_seconds`` — one caller flushing the entire stream,
      the offline ideal no concurrent deployment can reach.  On a
      single-core host the async engine approaches but cannot beat it
      (same model work plus future/lock overhead); on multi-core hosts
      submission and the flush loop overlap.

    ``async_seconds`` is the :class:`~repro.serve.async_server.
    AsyncSketchServer` fed the same stream by ``n_clients`` threads.
    Latency percentiles are client-observed (submit to future
    resolution).  The low-load wait percentiles come from a separate
    one-client closed-loop phase and demonstrate the ``max_wait_ms``
    bound on queueing delay.
    """

    n_requests: int
    n_distinct: int
    n_clients: int
    max_wait_ms: float
    sync_single_seconds: float
    sync_chunked_seconds: float
    sync_request_seconds: float
    async_seconds: float
    p50_latency: float        # high-load, client-observed (seconds)
    p99_latency: float
    low_load_p50_wait: float  # one-client phase, server queue wait (seconds)
    low_load_p99_wait: float
    max_rel_diff: float       # async estimates vs the single-query path
    n_deduped: int
    n_forward_batches: int
    n_fast_cache_hits: int
    n_errors: int

    @property
    def sync_single_qps(self) -> float:
        return self.n_requests / self.sync_single_seconds

    @property
    def sync_chunked_qps(self) -> float:
        return self.n_requests / self.sync_chunked_seconds

    @property
    def sync_request_qps(self) -> float:
        return self.n_requests / self.sync_request_seconds

    @property
    def async_qps(self) -> float:
        return self.n_requests / self.async_seconds

    @property
    def throughput_ratio(self) -> float:
        """Async vs the sync engine serving live concurrent requests."""
        return self.async_qps / self.sync_request_qps

    @property
    def chunked_ratio(self) -> float:
        """Async vs concurrent clients flushing pre-owned chunks."""
        return self.async_qps / self.sync_chunked_qps

    @property
    def single_caller_ratio(self) -> float:
        """Async throughput vs the single-caller whole-stream ideal."""
        return self.async_qps / self.sync_single_qps

    @property
    def identical(self) -> bool:
        return self.max_rel_diff <= IDENTITY_RTOL

    @property
    def p99_wait_bounded(self) -> bool:
        """Low-load p99 queue wait within 2x the configured max wait."""
        return self.low_load_p99_wait <= 2.0 * self.max_wait_ms / 1000.0

    @property
    def all_failed(self) -> bool:
        return self.n_requests > 0 and self.n_errors >= self.n_requests

    def report(self) -> str:
        lines = [
            f"workload          : {self.n_requests} requests "
            f"({self.n_distinct} distinct), {self.n_clients} clients",
            f"sync (per request): {self.sync_request_seconds:8.3f}s "
            f"({self.sync_request_qps:10.0f} q/s; live traffic: mutex, "
            f"one request per flush)",
            f"sync (per chunk)  : {self.sync_chunked_seconds:8.3f}s "
            f"({self.sync_chunked_qps:10.0f} q/s; clients own request "
            f"batches up front)",
            f"sync (1 caller)   : {self.sync_single_seconds:8.3f}s "
            f"({self.sync_single_qps:10.0f} q/s; whole-stream ideal)",
            f"async server      : {self.async_seconds:8.3f}s "
            f"({self.async_qps:10.0f} q/s: {self.throughput_ratio:5.2f}x "
            f"live sync, {self.chunked_ratio:5.2f}x chunked, "
            f"{self.single_caller_ratio:5.2f}x the ideal)",
            f"client latency    : p50 {self.p50_latency * 1000:7.2f}ms, "
            f"p99 {self.p99_latency * 1000:7.2f}ms (high load)",
            f"queue wait        : p50 {self.low_load_p50_wait * 1000:7.2f}ms, "
            f"p99 {self.low_load_p99_wait * 1000:7.2f}ms at low load "
            f"(bound: 2 x max_wait = {2 * self.max_wait_ms:.0f}ms, "
            f"{'OK' if self.p99_wait_bounded else 'EXCEEDED'})",
            f"dedup / cache     : {self.n_deduped} deduped, "
            f"{self.n_fast_cache_hits} fast cache hits, "
            f"{self.n_forward_batches} forward batches, "
            f"{self.n_errors} errors",
            f"max rel. diff     : {self.max_rel_diff:.2e} vs single-query "
            f"path ({'identical' if self.identical else 'NOT identical'} at "
            f"rtol={IDENTITY_RTOL:.0e})",
        ]
        return "\n".join(lines)


def _run_client_threads(n_clients: int, body) -> float:
    """Run ``body(client_id)`` on ``n_clients`` threads; time only the work.

    Threads are created and started before the clock; a barrier releases
    them together so thread spawn cost is not charged to the engine
    under test.
    """
    import threading as _threading

    barrier = _threading.Barrier(n_clients + 1)

    def runner(client_id: int) -> None:
        barrier.wait()
        body(client_id)

    threads = [
        _threading.Thread(target=runner, args=(c,)) for c in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


def run_concurrent_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    batch_size: int = 512,
    n_clients: int = 8,
    max_batch_size: int = 256,
    max_wait_ms: float = 10.0,
    min_idle_ms: float = 0.5,
    low_load_requests: int = 32,
    repeats: int = 3,
) -> ConcurrentBenchResult:
    """Measure the async engine under ``n_clients`` concurrent threads.

    Phases, each from a cold result cache:

    1. **Reference** — uncached single-query estimates for the whole
       stream (the parity baseline).
    2. **Sync, single caller** — one :class:`SketchServer` flush over
       the stream: the offline ideal.
    3. **Sync, concurrent** — the same server driven by ``n_clients``
       threads around a mutex, in both live-traffic form (one request
       per flush — the gate baseline) and chunk-owning form (each
       client flushes its whole share).
    4. **Async high load** — ``n_clients`` threads hand their share to
       ``submit_many`` and gather futures; throughput and
       client-observed latency percentiles are recorded.
    5. **Low load** — one closed-loop client sends distinct queries so
       every request meets the flush deadline alone, demonstrating the
       ``max_wait_ms`` queueing bound.

    Each timed phase runs ``repeats`` times (cold cache every time) and
    the best run is reported — the phases take milliseconds, so
    scheduler noise on a shared host would otherwise dominate the
    engine comparison.
    """
    import threading as _threading

    from .async_server import AsyncServeConfig, AsyncSketchServer, percentile

    sketch = manager.get_sketch(sketch_name)
    workload = tile_workload(list(queries), batch_size)
    distinct = list(dict.fromkeys(workload))
    shares = [
        [workload[i] for i in range(c, len(workload), n_clients)]
        for c in range(n_clients)
    ]

    # Phase 1: uncached single-query reference.
    sketch.clear_cache()
    reference = np.array([_estimate_or_nan(sketch, q) for q in workload])

    # Phase 2: the synchronous batched server, one caller, cold cache.
    def run_sync_single() -> tuple[float, None]:
        sketch.clear_cache()
        sync_server = SketchServer(
            manager, ServeConfig(max_batch_size=max_batch_size, use_cache=True)
        )
        t0 = time.perf_counter()
        sync_server.serve(workload, sketch=sketch_name)
        return time.perf_counter() - t0, None

    sync_single_seconds, _ = min(
        (run_sync_single() for _ in range(repeats)), key=lambda r: r[0]
    )

    # Phase 3: the synchronous server under concurrent clients.
    def run_sync_concurrent(per_request: bool) -> tuple[float, None]:
        sketch.clear_cache()
        sync_server = SketchServer(
            manager, ServeConfig(max_batch_size=max_batch_size, use_cache=True)
        )
        mutex = _threading.Lock()

        def sync_client(client_id: int) -> None:
            if per_request:
                # Live traffic: a client holds one request at a time,
                # so without the async engine there is nothing to batch.
                for query in shares[client_id]:
                    with mutex:
                        sync_server.serve([query], sketch=sketch_name)
            else:
                with mutex:
                    sync_server.serve(shares[client_id], sketch=sketch_name)

        return _run_client_threads(n_clients, sync_client), None

    sync_request_seconds, _ = min(
        (run_sync_concurrent(True) for _ in range(repeats)), key=lambda r: r[0]
    )
    sync_chunked_seconds, _ = min(
        (run_sync_concurrent(False) for _ in range(repeats)), key=lambda r: r[0]
    )

    # Phase 4: the async engine fed by concurrent client threads.
    config = AsyncServeConfig(
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        min_idle_ms=min_idle_ms,
    )

    def run_async() -> tuple[float, dict]:
        sketch.clear_cache()
        estimates = np.full(len(workload), np.nan)
        latencies = [0.0] * len(workload)
        errors = [0] * n_clients
        server = AsyncSketchServer(manager, config)

        def async_client(client_id: int) -> None:
            indices = list(range(client_id, len(workload), n_clients))
            t_submit = time.perf_counter()
            futures = server.submit_many(shares[client_id], sketch=sketch_name)
            for i, future in zip(indices, futures):
                response = future.result()
                latencies[i] = time.perf_counter() - t_submit
                if response.ok:
                    estimates[i] = response.estimate
                else:
                    errors[client_id] += 1

        with server:
            seconds = _run_client_threads(n_clients, async_client)
        return seconds, {
            "estimates": estimates,
            "latencies": latencies,
            "errors": sum(errors),
            "stats": server.stats,
        }

    async_seconds, async_run = min(
        (run_async() for _ in range(repeats)), key=lambda r: r[0]
    )

    # Phase 5: low load — one closed-loop client, distinct queries, so
    # every request sits alone in its buffer until a flush deadline.
    sketch.clear_cache()
    low_server = AsyncSketchServer(manager, config)
    with low_server:
        for query in tile_workload(distinct, low_load_requests):
            low_server.submit(query, sketch=sketch_name).result()
    waits = low_server.wait_summary()

    return ConcurrentBenchResult(
        n_requests=len(workload),
        n_distinct=len(distinct),
        n_clients=n_clients,
        max_wait_ms=max_wait_ms,
        sync_single_seconds=sync_single_seconds,
        sync_chunked_seconds=sync_chunked_seconds,
        sync_request_seconds=sync_request_seconds,
        async_seconds=async_seconds,
        p50_latency=percentile(async_run["latencies"], 0.50),
        p99_latency=percentile(async_run["latencies"], 0.99),
        low_load_p50_wait=waits["p50"],
        low_load_p99_wait=waits["p99"],
        max_rel_diff=_max_rel_diff(async_run["estimates"], reference),
        n_deduped=async_run["stats"].n_deduped,
        n_forward_batches=async_run["stats"].n_forward_batches,
        n_fast_cache_hits=async_run["stats"].n_fast_cache_hits,
        n_errors=async_run["errors"],
    )


# ----------------------------------------------------------------------
# executor scale-out scenario (inline vs thread vs process)
# ----------------------------------------------------------------------

@dataclass
class ExecutorBenchResult:
    """One executor's timing + parity on the model-bound stream.

    The stream is served with the result cache **off** so every
    micro-batch performs real featurization and model work — the
    CPU-bound scenario multi-core scale-out targets.  ``max_rel_diff``
    compares against the inline executor's estimates on the same
    stream (the engine-parity acceptance bound is 1e-12).
    """

    executor: str
    workers: int
    seconds: float
    qps: float
    n_forward_batches: int
    n_fallbacks: int
    max_rel_diff: float


@dataclass
class ExecutorSuiteResult:
    """Timings of every executor on the same stream, inline as baseline."""

    n_requests: int
    max_batch_size: int
    results: list  # [ExecutorBenchResult], inline first

    def result_for(self, name: str) -> ExecutorBenchResult | None:
        for result in self.results:
            if result.executor == name:
                return result
        return None

    def speedup(self, name: str) -> float:
        """Throughput of ``name`` relative to the inline executor."""
        inline = self.result_for("inline")
        other = self.result_for(name)
        if inline is None or other is None or other.seconds <= 0:
            return float("nan")
        return inline.seconds / other.seconds

    @property
    def parity_ok(self) -> bool:
        return all(r.max_rel_diff <= EXECUTOR_PARITY_RTOL for r in self.results)

    def report(self) -> str:
        lines = [
            f"executor scale-out: {self.n_requests} uncached requests, "
            f"micro-batches of {self.max_batch_size}"
        ]
        for r in self.results:
            lines.append(
                f"{r.executor:>8} x{r.workers}: {r.seconds:8.3f}s "
                f"({r.qps:10.0f} q/s, {self.speedup(r.executor):5.2f}x inline; "
                f"{r.n_forward_batches} forwards, {r.n_fallbacks} fallbacks, "
                f"max rel diff {r.max_rel_diff:.2e})"
            )
        return "\n".join(lines)


#: Acceptance bound for inline vs thread vs process estimates.
EXECUTOR_PARITY_RTOL = 1e-12


def run_executor_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    batch_size: int = 512,
    max_batch_size: int = 64,
    workers: int = 2,
    executors: Sequence[str] = ("inline", "thread", "process"),
    repeats: int = 3,
) -> ExecutorSuiteResult:
    """Serve the same uncached stream through each executor and compare.

    ``max_batch_size`` deliberately defaults smaller than the serving
    default so the stream splits into several micro-batches — the units
    a thread/process executor overlaps.  Caching is off: a cached
    stream measures dict lookups, not scale-out — and with no caches in
    play the sketch is **not** cleared between repeats, so this is a
    steady-state measurement (``clear_cache`` advances the sketch's
    snapshot token, which would make the process executor re-install
    the sketch in its workers inside the timed region — a retrain
    cost, not a serving cost).  Each executor runs ``repeats`` times (best run
    reported); one untimed warmup run builds pools and warms the
    per-worker mask memos and buffer pools for every executor alike.
    """
    manager.get_sketch(sketch_name)  # raise early on an unknown name
    workload = tile_workload(list(queries), batch_size)
    results: list[ExecutorBenchResult] = []
    inline_estimates: np.ndarray | None = None

    for name in executors:
        config = ServeConfig(
            max_batch_size=max_batch_size,
            use_cache=False,
            executor=name,
            executor_workers=workers,
        )
        best = None
        with SketchServer(manager, config) as server:
            # Warm up outside the timed region: process pools fork and
            # receive snapshots here, and every executor's scratch
            # pools/memos settle onto the workload's shapes.
            server.serve(workload, sketch=sketch_name)
            for _ in range(repeats):
                # Per-run counter deltas, so the reported forwards and
                # fallbacks describe the best run alone — not the
                # cumulative warmup+repeats total.
                forwards0 = server.stats.n_forward_batches
                fallbacks0 = server.stats.n_executor_fallbacks
                t0 = time.perf_counter()
                responses = server.serve(workload, sketch=sketch_name)
                seconds = time.perf_counter() - t0
                run_stats = (
                    server.stats.n_forward_batches - forwards0,
                    server.stats.n_executor_fallbacks - fallbacks0,
                )
                if best is None or seconds < best[0]:
                    best = (seconds, responses, run_stats)
            seconds, responses, (n_forwards, n_fallbacks) = best
        estimates = np.array(
            [r.estimate if r.ok else np.nan for r in responses]
        )
        if inline_estimates is None:
            inline_estimates = estimates
            diff = 0.0
        else:
            diff = _max_rel_diff(estimates, inline_estimates)
        results.append(
            ExecutorBenchResult(
                executor=name,
                workers=1 if name == "inline" else workers,
                seconds=seconds,
                qps=len(workload) / seconds,
                n_forward_batches=n_forwards,
                n_fallbacks=n_fallbacks,
                max_rel_diff=diff,
            )
        )
    return ExecutorSuiteResult(
        n_requests=len(workload),
        max_batch_size=max_batch_size,
        results=results,
    )


# ----------------------------------------------------------------------
# overload scenario (admission control)
# ----------------------------------------------------------------------

@dataclass
class OverloadBenchResult:
    """Outcome of slamming a bounded queue with a burst.

    Demonstrates the admission-control contract: queue depth never
    exceeds ``max_queue_depth``, the overflow is shed with structured
    ``code="shed"`` responses at submit time, every accepted request is
    served by the drain, and **every** future resolves (zero abandoned).
    """

    n_requests: int
    max_queue_depth: int
    n_shed: int
    n_served: int
    n_unresolved: int
    max_depth_seen: int

    @property
    def bounded(self) -> bool:
        return self.max_depth_seen <= self.max_queue_depth

    @property
    def ok(self) -> bool:
        return (
            self.bounded
            and self.n_unresolved == 0
            and self.n_shed + self.n_served == self.n_requests
            and self.n_shed > 0
        )

    def report(self) -> str:
        return (
            f"overload: {self.n_requests} burst requests vs "
            f"max_queue_depth={self.max_queue_depth} -> "
            f"{self.n_served} served, {self.n_shed} shed "
            f"(max depth seen {self.max_depth_seen}, "
            f"{self.n_unresolved} unresolved futures) "
            f"[{'OK' if self.ok else 'FAILED'}]"
        )


def run_overload_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    burst_size: int = 512,
    max_queue_depth: int = 64,
) -> OverloadBenchResult:
    """Submit a burst far beyond ``max_queue_depth`` and audit the shed.

    The flush deadline is set beyond the test horizon so the whole
    burst lands in the buffers before anything drains; the close() then
    drains exactly the accepted prefix.  Dedup and caching are off so
    every request is its own queue entry.
    """
    from .async_server import AsyncServeConfig, AsyncSketchServer

    sketch = manager.get_sketch(sketch_name)
    sketch.clear_cache()
    workload = tile_workload(list(queries), burst_size)
    config = AsyncServeConfig(
        max_batch_size=max_queue_depth,
        max_wait_ms=600_000.0,
        min_idle_ms=None,
        use_cache=False,
        dedup=False,
        max_queue_depth=max_queue_depth,
    )
    server = AsyncSketchServer(manager, config).start()
    futures = server.submit_many(workload, sketch=sketch_name)
    server.close()
    # The engine's lifetime high-water mark, not a racy post-hoc
    # ``pending`` read: the flush loop may drain the buffers the moment
    # ``submit_many`` releases the lock, but the peak recorded *inside*
    # the intake critical section cannot be missed — an over-admitting
    # engine would show a peak above the configured bound here.
    max_depth_seen = int(server.stats_summary()["queue_depth_peak"])
    responses = []
    n_unresolved = 0
    for future in futures:
        if future.done():
            responses.append(future.result())
        else:
            n_unresolved += 1
    n_shed = sum(1 for r in responses if r.code == "shed")
    n_served = sum(1 for r in responses if r.ok)
    return OverloadBenchResult(
        n_requests=len(workload),
        max_queue_depth=max_queue_depth,
        n_shed=n_shed,
        n_served=n_served,
        n_unresolved=n_unresolved,
        max_depth_seen=max_depth_seen,
    )


# ----------------------------------------------------------------------
# gateway scenario (multi-node scale-out + kill-a-backend audit)
# ----------------------------------------------------------------------

@dataclass
class GatewayScaleoutPoint:
    """Throughput of one fleet size on the closed-loop client stream."""

    n_backends: int
    seconds: float
    qps: float
    max_rel_diff: float
    n_errors: int


@dataclass
class GatewayBenchResult:
    """Gateway scale-out curve + the kill-a-backend degradation audit.

    ``scaleout`` holds one point per fleet size (each backend a live
    in-process :class:`~repro.serve.http.SketchHTTPServer` replicating
    the same sketch): closed-loop client threads drive the gateway, so
    round-robin replica selection turns added backends into added
    throughput.  Parity is gated at ``EXECUTOR_PARITY_RTOL`` (1e-12)
    against the single-query path — the fleet must not change numbers.

    The kill audit runs a 2-replica fleet, closes one backend while the
    stream is in flight, and verifies the degradation contract: every
    future resolves (zero hung), failures carry only structured
    ``route``/``shed`` codes, and the survivors stay exact.
    """

    n_requests: int
    n_clients: int
    scaleout: list  # [GatewayScaleoutPoint], 1 backend first
    kill_n_requests: int
    kill_n_ok: int
    kill_n_structured: int
    kill_n_unstructured: int
    kill_n_unresolved: int
    kill_max_rel_diff: float
    kill_n_failovers: int

    def point_for(self, n_backends: int) -> GatewayScaleoutPoint | None:
        for point in self.scaleout:
            if point.n_backends == n_backends:
                return point
        return None

    def speedup(self, n_backends: int) -> float:
        """Throughput of an ``n_backends`` fleet relative to one backend."""
        one = self.point_for(1)
        many = self.point_for(n_backends)
        if one is None or many is None or many.seconds <= 0:
            return float("nan")
        return one.seconds / many.seconds

    @property
    def parity_ok(self) -> bool:
        return (
            all(p.max_rel_diff <= EXECUTOR_PARITY_RTOL for p in self.scaleout)
            and self.kill_max_rel_diff <= EXECUTOR_PARITY_RTOL
        )

    @property
    def kill_ok(self) -> bool:
        """Zero hung futures, only structured failures, survivors exist."""
        return (
            self.kill_n_unresolved == 0
            and self.kill_n_unstructured == 0
            and self.kill_n_ok > 0
        )

    def report(self) -> str:
        lines = [
            f"gateway scale-out : {self.n_requests} uncached requests, "
            f"{self.n_clients} closed-loop clients"
        ]
        for point in self.scaleout:
            lines.append(
                f"  {point.n_backends} backend(s): {point.seconds:8.3f}s "
                f"({point.qps:10.0f} q/s, "
                f"{self.speedup(point.n_backends):5.2f}x one backend; "
                f"{point.n_errors} errors, "
                f"max rel diff {point.max_rel_diff:.2e})"
            )
        lines.append(
            f"  kill-a-backend  : {self.kill_n_ok}/{self.kill_n_requests} "
            f"served, {self.kill_n_structured} structured route/shed, "
            f"{self.kill_n_unstructured} unstructured, "
            f"{self.kill_n_unresolved} hung futures, "
            f"{self.kill_n_failovers} failovers, survivors max rel diff "
            f"{self.kill_max_rel_diff:.2e} "
            f"[{'OK' if self.kill_ok else 'FAILED'}]"
        )
        return "\n".join(lines)


def _spawn_fleet(
    sketch,
    n_backends: int,
    max_batch_size: int,
    max_queue_depth: int | None = None,
):
    """``n_backends`` live front doors, each replicating ``sketch``."""
    from ..demo.manager import SketchManager
    from .http import SketchHTTPServer

    servers = []
    for _ in range(n_backends):
        manager = SketchManager(db=None)
        manager.register_sketch(sketch)
        servers.append(
            SketchHTTPServer(
                manager,
                ServeConfig(
                    max_batch_size=max_batch_size,
                    use_cache=False,
                    dedup=False,
                    max_queue_depth=max_queue_depth,
                ),
                port=0,
            ).start()
        )
    return servers


def run_gateway_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    batch_size: int = 256,
    max_batch_size: int = 64,
    backend_counts: Sequence[int] = (1, 2, 4),
    n_clients: int = 8,
) -> GatewayBenchResult:
    """Measure gateway scale-out (1 -> N backends) and the kill audit.

    Every fleet size serves the same uncached stream through the same
    gateway configuration, driven by ``n_clients`` closed-loop threads
    (one request in flight per client — live traffic, the shape
    replication actually helps).  Caching and dedup are off on the
    backends so added replicas add real model work, not dict lookups.

    The kill audit then runs the stream against a 2-replica fleet and
    closes one backend after the first half has been submitted,
    auditing the structured-degradation contract.
    """
    from .gateway import SketchGateway

    sketch = manager.get_sketch(sketch_name)
    workload = tile_workload(list(queries), batch_size)
    shares = [
        [workload[i] for i in range(c, len(workload), n_clients)]
        for c in range(n_clients)
    ]

    sketch.clear_cache()
    reference = np.array([_estimate_or_nan(sketch, q) for q in workload])
    reference_by_query = {q: e for q, e in zip(workload, reference)}

    # -- scale-out curve ------------------------------------------------
    points: list[GatewayScaleoutPoint] = []
    for n_backends in backend_counts:
        sketch.clear_cache()
        servers = _spawn_fleet(sketch, n_backends, max_batch_size)
        estimates = np.full(len(workload), np.nan)
        n_errors = [0] * n_clients
        try:
            with SketchGateway(
                [server.url for server in servers],
                health_interval_s=None,
                connection_workers=n_clients,
            ) as gateway:

                def client_body(client_id: int) -> None:
                    indices = range(client_id, len(workload), n_clients)
                    for i, query in zip(indices, shares[client_id]):
                        response = gateway.estimate(query)
                        if response.ok:
                            estimates[i] = response.estimate
                        else:
                            n_errors[client_id] += 1

                seconds = _run_client_threads(n_clients, client_body)
        finally:
            for server in servers:
                server.close()
        points.append(
            GatewayScaleoutPoint(
                n_backends=n_backends,
                seconds=seconds,
                qps=len(workload) / seconds,
                max_rel_diff=_max_rel_diff(estimates, reference),
                n_errors=sum(n_errors),
            )
        )

    # -- kill-a-backend audit ------------------------------------------
    sketch.clear_cache()
    servers = _spawn_fleet(sketch, 2, max_batch_size)
    kill_at = len(workload) // 2
    futures = []
    try:
        with SketchGateway(
            [server.url for server in servers],
            health_interval_s=None,
            connection_workers=n_clients,
        ) as gateway:
            for i, query in enumerate(workload):
                futures.append(gateway.submit(query))
                if i == kill_at:
                    servers[1].close()  # one replica dies mid-stream
            n_ok = n_structured = n_unstructured = n_unresolved = 0
            survivor_diff = 0.0
            for query, future in zip(workload, futures):
                try:
                    response = future.result(timeout=60.0)
                except Exception:
                    n_unresolved += 1
                    continue
                if response.ok:
                    n_ok += 1
                    expected = reference_by_query[query]
                    if np.isfinite(expected):
                        survivor_diff = max(
                            survivor_diff,
                            abs(response.estimate - expected)
                            / max(abs(expected), 1e-300),
                        )
                elif response.code in ("route", "shed"):
                    n_structured += 1
                else:
                    n_unstructured += 1
            n_failovers = gateway.stats_summary()["gateway"]["failovers"]
    finally:
        for server in servers:
            server.close()

    return GatewayBenchResult(
        n_requests=len(workload),
        n_clients=n_clients,
        scaleout=points,
        kill_n_requests=len(workload),
        kill_n_ok=n_ok,
        kill_n_structured=n_structured,
        kill_n_unstructured=n_unstructured,
        kill_n_unresolved=n_unresolved,
        kill_max_rel_diff=survivor_diff,
        kill_n_failovers=n_failovers,
    )


# ----------------------------------------------------------------------
# HTTP front-door scenario (wire overhead)
# ----------------------------------------------------------------------

@dataclass
class HttpBenchResult:
    """HTTP round-trip cost vs the in-process service on one stream.

    Four passes over the same uncached workload, through the same
    engine configuration: in-process per-request (closed-loop
    ``submit().result()``), in-process batched (one ``submit_many``),
    HTTP per-request (``RemoteSketchServer.estimate`` round trips), and
    HTTP batched (one ``POST /v1/estimate_batch``).  The per-request
    deltas are the wire+marshalling overhead the front door adds; the
    batched pair shows how one-envelope batching amortizes it.
    ``max_rel_diff`` compares every pass's estimates against the
    in-process per-request reference (bound: 1e-12, the executor-parity
    bar — the wire must not change numbers).
    """

    n_requests: int
    inproc_request_seconds: float
    inproc_request_p50: float
    inproc_request_p99: float
    inproc_batch_seconds: float
    http_request_seconds: float
    http_request_p50: float
    http_request_p99: float
    http_batch_seconds: float
    server_reported_p50: float
    max_rel_diff: float
    n_errors: int

    @property
    def overhead_p50_ms(self) -> float:
        """Per-request wire overhead at the median (milliseconds)."""
        return (self.http_request_p50 - self.inproc_request_p50) * 1000.0

    @property
    def overhead_p99_ms(self) -> float:
        return (self.http_request_p99 - self.inproc_request_p99) * 1000.0

    @property
    def batch_overhead_per_request_ms(self) -> float:
        """Amortized wire overhead per request when batched (ms)."""
        return (
            (self.http_batch_seconds - self.inproc_batch_seconds)
            / self.n_requests
            * 1000.0
        )

    @property
    def batch_amortization(self) -> float:
        """How much batching shrinks the per-request wire overhead."""
        per_request = self.http_request_seconds - self.inproc_request_seconds
        batched = self.http_batch_seconds - self.inproc_batch_seconds
        if batched <= 0:
            return float("inf")
        return per_request / batched

    @property
    def parity_ok(self) -> bool:
        return self.max_rel_diff <= EXECUTOR_PARITY_RTOL

    @property
    def ok(self) -> bool:
        return self.parity_ok and self.n_errors == 0

    def report(self) -> str:
        return "\n".join([
            f"http front door   : {self.n_requests} uncached requests",
            f"  per-request     : in-process p50 "
            f"{self.inproc_request_p50 * 1000:7.2f}ms / p99 "
            f"{self.inproc_request_p99 * 1000:7.2f}ms; http p50 "
            f"{self.http_request_p50 * 1000:7.2f}ms / p99 "
            f"{self.http_request_p99 * 1000:7.2f}ms "
            f"(overhead p50 {self.overhead_p50_ms:+.2f}ms)",
            f"  batched stream  : in-process {self.inproc_batch_seconds:7.3f}s; "
            f"http {self.http_batch_seconds:7.3f}s "
            f"({self.batch_overhead_per_request_ms:+.3f}ms/request, "
            f"{self.batch_amortization:.1f}x overhead amortization)",
            f"  server-side p50 : {self.server_reported_p50 * 1000:7.2f}ms "
            f"(from response envelopes)",
            f"  parity          : max rel diff {self.max_rel_diff:.2e} "
            f"({self.n_errors} errors) "
            f"[{'OK' if self.ok else 'FAILED'}]",
        ])


def run_http_benchmark(
    manager,
    sketch_name: str,
    queries: Sequence[Query],
    batch_size: int = 256,
    max_batch_size: int = 64,
    max_wait_ms: float = 2.0,
) -> HttpBenchResult:
    """Measure the HTTP front door against the in-process service.

    Caching and dedup are off so every request performs real model
    work in *every* pass (a warm cache would measure dict lookups over
    the wire); the same ``ServeConfig`` drives both the in-process
    :class:`~repro.serve.async_server.AsyncSketchServer` and the
    :class:`~repro.serve.http.SketchHTTPServer`, so the only variable
    is the transport.  One untimed warmup request per service settles
    buffer pools.  The SDK is pinned to ``transport="json"`` here — this
    scenario measures the HTTP/JSON front door (over the SDK's pooled
    keep-alive connections); the negotiated binary framing is measured
    separately by ``benchmarks/bench_transport.py``.
    """
    from .async_server import AsyncServeConfig, AsyncSketchServer
    from .client import RemoteSketchServer
    from .http import SketchHTTPServer

    manager.get_sketch(sketch_name)  # raise early on an unknown name
    workload = tile_workload(list(queries), batch_size)
    config_kwargs = dict(
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        use_cache=False,
        dedup=False,
    )
    results: dict[str, np.ndarray] = {}
    n_errors = 0

    # -- in-process passes ---------------------------------------------
    with AsyncSketchServer(
        manager, AsyncServeConfig(**config_kwargs)
    ) as inproc:
        inproc.estimate(workload[0], sketch=sketch_name)  # warmup
        latencies = []
        t0 = time.perf_counter()
        estimates = []
        for query in workload:
            t1 = time.perf_counter()
            response = inproc.estimate(query, sketch=sketch_name)
            latencies.append(time.perf_counter() - t1)
            estimates.append(response.estimate if response.ok else np.nan)
            n_errors += 0 if response.ok else 1
        inproc_request_seconds = time.perf_counter() - t0
        results["inproc_request"] = np.array(estimates)
        inproc_lat = np.array(latencies)

        t0 = time.perf_counter()
        responses = [
            f.result() for f in inproc.submit_many(workload, sketch=sketch_name)
        ]
        inproc_batch_seconds = time.perf_counter() - t0
        n_errors += sum(0 if r.ok else 1 for r in responses)
        results["inproc_batch"] = np.array(
            [r.estimate if r.ok else np.nan for r in responses]
        )

    # -- HTTP passes ----------------------------------------------------
    with SketchHTTPServer(
        manager, ServeConfig(**config_kwargs), port=0
    ) as front_door:
        with RemoteSketchServer(front_door.url) as client:
            client.estimate(workload[0], sketch=sketch_name)  # warmup
            latencies = []
            t0 = time.perf_counter()
            estimates = []
            for query in workload:
                t1 = time.perf_counter()
                response = client.estimate(query, sketch=sketch_name)
                latencies.append(time.perf_counter() - t1)
                estimates.append(response.estimate if response.ok else np.nan)
                n_errors += 0 if response.ok else 1
            http_request_seconds = time.perf_counter() - t0
            results["http_request"] = np.array(estimates)
            http_lat = np.array(latencies)
            server_reported_p50 = client.server_latency.summary()["p50"]

            t0 = time.perf_counter()
            responses = client.estimate_many(workload, sketch=sketch_name)
            http_batch_seconds = time.perf_counter() - t0
            n_errors += sum(0 if r.ok else 1 for r in responses)
            results["http_batch"] = np.array(
                [r.estimate if r.ok else np.nan for r in responses]
            )

    reference = results["inproc_request"]
    max_rel_diff = max(
        _max_rel_diff(estimates, reference)
        for name, estimates in results.items()
        if name != "inproc_request"
    )
    return HttpBenchResult(
        n_requests=len(workload),
        inproc_request_seconds=inproc_request_seconds,
        inproc_request_p50=float(np.percentile(inproc_lat, 50)),
        inproc_request_p99=float(np.percentile(inproc_lat, 99)),
        inproc_batch_seconds=inproc_batch_seconds,
        http_request_seconds=http_request_seconds,
        http_request_p50=float(np.percentile(http_lat, 50)),
        http_request_p99=float(np.percentile(http_lat, 99)),
        http_batch_seconds=http_batch_seconds,
        server_reported_p50=server_reported_p50,
        max_rel_diff=max_rel_diff,
        n_errors=n_errors,
    )


# ----------------------------------------------------------------------
# bursty stress scenario (templated traffic vs the gateway)
# ----------------------------------------------------------------------

@dataclass
class BurstyStressResult:
    """Outcome of replaying skewed/bursty templated traffic at a fleet.

    A :class:`~repro.workload.traffic.TrafficShaper` drives the gateway
    open-loop (arrivals come from the schedule, not from completions),
    so ON windows overrun the backends' bounded queues on purpose.  The
    audit is the serving tier's whole degradation contract at once:
    every future resolves (zero hung), every failure carries a
    structured code from ``RESPONSE_CODES``, and no backend's intake
    ever exceeded its configured ``max_queue_depth``.
    """

    n_requests: int
    n_backends: int
    max_queue_depth: int
    replay: object  # ReplayResult (duck-typed to avoid a workload import)
    #: Per-backend lifetime ``queue_depth_peak`` (one entry per backend).
    queue_depth_peaks: list
    n_failovers: int

    @property
    def bounded(self) -> bool:
        """No backend's intake high-water mark exceeded its bound."""
        return all(peak <= self.max_queue_depth for peak in self.queue_depth_peaks)

    @property
    def ok(self) -> bool:
        return (
            self.replay.ok
            and self.bounded
            and self.replay.n_ok > 0
        )

    def audit(self) -> dict:
        """JSON-friendly audit block (bench gates read this)."""
        block = self.replay.audit()
        block.update(
            n_backends=self.n_backends,
            max_queue_depth=self.max_queue_depth,
            queue_depth_peaks=list(self.queue_depth_peaks),
            bounded=self.bounded,
            n_failovers=self.n_failovers,
            stress_ok=self.ok,
        )
        return block

    def report(self) -> str:
        replay = self.replay
        shed = replay.code_counts.get("shed", 0)
        deadline = replay.code_counts.get("deadline", 0)
        other = replay.n_failed - shed - deadline - replay.n_unstructured
        return (
            f"bursty stress     : {self.n_requests} open-loop requests vs "
            f"{self.n_backends} backend(s), max_queue_depth="
            f"{self.max_queue_depth}\n"
            f"  outcome         : {replay.n_ok} served, {shed} shed, "
            f"{deadline} deadline, {other} other structured, "
            f"{replay.n_unstructured} unstructured, "
            f"{replay.n_unresolved} hung futures\n"
            f"  queue depth     : peaks {self.queue_depth_peaks} "
            f"(bound {'held' if self.bounded else 'VIOLATED'})\n"
            f"  rate            : {replay.achieved_qps:8.0f} q/s achieved, "
            f"p99 latency {replay.latency_p99_ms:7.2f}ms "
            f"[{'OK' if self.ok else 'FAILED'}]"
        )


def run_bursty_stress_benchmark(
    manager,
    sketch_name: str,
    suite,
    traffic=None,
    n_backends: int = 2,
    max_queue_depth: int = 32,
    max_batch_size: int = 32,
    seed=0,
) -> BurstyStressResult:
    """Replay a skewed, bursty suite stream against a gateway fleet.

    ``suite`` is a :class:`~repro.workload.suite.TemplateSuite` (labels
    not required — only the query instances are replayed); ``traffic``
    a :class:`~repro.workload.traffic.TrafficConfig` (defaults chosen
    to overrun ``max_queue_depth`` during ON windows).  Backends run
    with caching and dedup off and a bounded queue, so every accepted
    request is real model work and the overflow must shed.
    """
    from ..workload.traffic import TrafficConfig, TrafficShaper
    from .gateway import SketchGateway

    sketch = manager.get_sketch(sketch_name)
    sketch.clear_cache()
    traffic = traffic or TrafficConfig()
    shaper = TrafficShaper(suite, traffic, seed=seed)
    servers = _spawn_fleet(
        sketch, n_backends, max_batch_size, max_queue_depth=max_queue_depth
    )
    try:
        with SketchGateway(
            [server.url for server in servers],
            health_interval_s=None,
        ) as gateway:
            replay = shaper.replay(gateway)
            stats = gateway.stats_summary()
            peaks = [
                int(summary["queue_depth_peak"])
                for summary in stats["backends"].values()
                if summary is not None
            ]
            n_failovers = int(stats["gateway"]["failovers"])
    finally:
        for server in servers:
            server.close()
    return BurstyStressResult(
        n_requests=replay.n_requests,
        n_backends=n_backends,
        max_queue_depth=max_queue_depth,
        replay=replay,
        queue_depth_peaks=peaks,
        n_failovers=n_failovers,
    )
