"""Concurrent clients against a started sketch server.

Demonstrates the latency-bounded serving loop end to end:

1. build a small Deep Sketch over the synthetic IMDb,
2. start a ``SketchServer`` (``start()`` hands flushing to a background
   loop),
3. fire a templated query stream from several client threads — each
   client submits requests and waits on futures, exactly like
   independent application threads would,
4. await a few queries from ``asyncio`` through the same server,
5. hand the started server one blocking ``serve(batch)``: a complete
   batch does not wait for the timers, its caller answers it at once
   (a ``forced`` flush),
6. print the serving statistics: flush triggers, dedup, cache hits,
   and queue-wait percentiles.

Run from the repository root::

    python examples/serve_async.py           # full (a minute or two)
    python examples/serve_async.py --tiny    # smoke run (seconds)
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SketchConfig  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.serve import ServeConfig, SketchServer  # noqa: E402
from repro.workload import (  # noqa: E402
    JobLightConfig,
    generate_job_light,
    spec_for_imdb,
)


def build_manager(args) -> SketchManager:
    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    manager = SketchManager(db)
    print(
        f"building sketch (scale={args.scale}, {args.queries} training "
        f"queries, {args.epochs} epochs)...",
        file=sys.stderr,
    )
    manager.create_sketch(
        "imdb",
        spec_for_imdb(),
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=0,
        ),
    )
    return manager


def run_clients(server: SketchServer, workload, n_clients: int) -> float:
    """Each client thread submits its share and waits on the futures.

    Failures inside a client thread (timeouts, failed responses) are
    collected and re-raised in the caller — a thread's exception must
    not be swallowed by ``Thread.join``, or the smoke run would pass
    while serving is broken.
    """
    failures: list[BaseException] = []

    def client(client_id: int) -> None:
        try:
            futures = [
                server.submit(workload[i])
                for i in range(client_id, len(workload), n_clients)
            ]
            for future in futures:
                response = future.result(timeout=60)
                if not response.ok:
                    raise RuntimeError(f"request failed: {response.error}")
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(n_clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(f"{len(failures)} client(s) failed") from failures[0]
    return time.perf_counter() - start


async def run_asyncio_clients(server: SketchServer, queries) -> None:
    """The same server is awaitable from an event loop."""
    responses = await asyncio.gather(
        *[server.submit_async(q) for q in queries]
    )
    assert all(r.ok for r in responses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=512)
    parser.add_argument("--distinct", type=int, default=40)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke configuration (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.tiny:
        args.scale, args.queries, args.epochs = 0.05, 300, 2
        args.samples, args.hidden = 50, 16
        args.requests, args.distinct = 64, 10

    manager = build_manager(args)
    distinct = generate_job_light(
        manager.db, JobLightConfig(n_queries=args.distinct, seed=1)
    )
    workload = [distinct[i % len(distinct)] for i in range(args.requests)]

    config = ServeConfig(max_wait_ms=args.max_wait_ms)
    with SketchServer(manager, config).start() as server:
        elapsed = run_clients(server, workload, args.clients)
        asyncio.run(run_asyncio_clients(server, distinct[: min(8, len(distinct))]))
        # Queries the clients never sent, so the batch misses the cache
        # and has to be flushed.
        sent = set(distinct)
        fresh = [
            q for q in generate_job_light(
                manager.db, JobLightConfig(n_queries=8, seed=2)
            )
            if q not in sent
        ]
        forced = server.stats.n_flushes_forced
        batch = server.serve(fresh)
        if not all(r.ok for r in batch):
            raise RuntimeError("a blocking batch answered with errors")
        if server.stats.n_flushes_forced == forced:
            raise RuntimeError("a blocking batch waited for the loop")

        stats = server.stats
        waits = server.wait_summary()
        print(
            f"{len(workload)} requests from {args.clients} threads in "
            f"{elapsed:.3f}s ({len(workload) / elapsed:.0f} q/s)"
        )
        print(
            f"flushes: {stats.n_flushes} "
            f"({stats.n_flushes_full} full, {stats.n_flushes_timed} timed, "
            f"{stats.n_flushes_idle} idle, {stats.n_flushes_drain} drain, "
            f"{stats.n_flushes_forced} forced)"
        )
        print(
            f"shared work: {stats.n_deduped} deduped, "
            f"{stats.n_cache_hits} cache hits "
            f"({stats.n_fast_cache_hits} at submit), "
            f"{stats.n_forward_batches} forward batches"
        )
        print(
            f"queue wait: p50 {waits['p50'] * 1000:.2f}ms, "
            f"p99 {waits['p99'] * 1000:.2f}ms "
            f"(max_wait_ms={args.max_wait_ms:g})"
        )
        print(f"feature cache: {server.feature_cache!r}")
        if stats.n_errors:
            print(f"errors: {stats.n_errors}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
