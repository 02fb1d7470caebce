"""Multi-node serving end to end: shard, replicate, fail over.

Demonstrates that a fleet behind ``SketchGateway`` is still the *same*
estimation API (the ``SketchService`` protocol):

1. build a small Deep Sketch over the synthetic IMDb,
2. start TWO ``SketchHTTPServer`` backends on ephemeral ports, each
   replicating the sketch,
3. front them with a ``SketchGateway`` — it learns the fleet map from
   ``/v1/healthz``, routes queries, and round-robins across replicas,
4. assert **parity**: gateway estimates match the in-process
   ``SketchServer`` on the same stream to <= 1e-12 relative,
5. **kill one backend mid-stream** and show the failover contract:
   every future resolves (zero hangs), failures carry structured
   ``route``/``shed`` codes, and surviving answers still match the
   reference,
6. print the fleet ``stats_summary()`` — gateway + per-backend + summed
   fleet views in one snapshot.

Run from the repository root::

    python examples/serve_gateway.py           # full (a minute or two)
    python examples/serve_gateway.py --tiny    # smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SketchConfig  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeConfig,
    SketchGateway,
    SketchHTTPServer,
    SketchServer,
    SketchService,
)
from repro.workload import (  # noqa: E402
    JobLightConfig,
    generate_job_light,
    spec_for_imdb,
)

#: The acceptance bound: gateway estimates vs the in-process facade.
PARITY_RTOL = 1e-12
#: Structured codes the failover path is allowed to emit.
STRUCTURED_CODES = ("route", "shed")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--distinct", type=int, default=40)
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

    # The in-process reference: a caller-driven server on the same manager.
    with SketchServer(manager, ServeConfig(use_cache=False)) as local:
        reference = {
            query: r.estimate
            for query, r in zip(workload, local.serve(workload))
            if r.ok
        }

    # Two backends, each replicating the sketch (same manager here; in
    # production each backend loads its own copy from disk).
    config = ServeConfig(use_cache=False)
    servers = [
        SketchHTTPServer(manager, config, port=0) for _ in range(2)
    ]
    gateway = None
    try:
        for server in servers:
            server.start()
            print(f"backend listening on {server.url}", file=sys.stderr)

        gateway = SketchGateway(
            [server.url for server in servers], health_interval_s=None
        )
        assert isinstance(gateway, SketchService)
        print(
            "gateway fleet map: "
            + json.dumps(gateway.describe_sketches()),
            file=sys.stderr,
        )

        # 1. parity: the fleet must not change numbers
        responses = gateway.serve(workload)
        worst, n_errors = 0.0, 0
        for query, response in zip(workload, responses):
            if not response.ok:
                n_errors += 1
                continue
            expected = reference[query]
            worst = max(worst, abs(response.estimate - expected) / abs(expected))
        print(
            f"parity: {len(workload)} requests over 2 backends, "
            f"max rel diff {worst:.2e} ({n_errors} errors)"
        )
        if n_errors or worst > PARITY_RTOL:
            print(
                f"FAIL: gateway serving diverged (max rel diff {worst:.2e}, "
                f"{n_errors} errors)",
                file=sys.stderr,
            )
            return 1

        # 2. kill a backend mid-stream: submit everything, close one
        #    backend halfway through, then gather every future.
        futures = []
        for index, query in enumerate(workload):
            if index == len(workload) // 2:
                print("killing backend 2 mid-stream...", file=sys.stderr)
                servers[1].close()
            futures.append(gateway.submit(query))
        n_ok = n_structured = n_unstructured = n_hung = 0
        kill_worst = 0.0
        for query, future in zip(workload, futures):
            try:
                response = future.result(timeout=60.0)
            except Exception:
                n_hung += 1
                continue
            if response.ok:
                n_ok += 1
                expected = reference[query]
                kill_worst = max(
                    kill_worst, abs(response.estimate - expected) / abs(expected)
                )
            elif response.code in STRUCTURED_CODES:
                n_structured += 1
            else:
                n_unstructured += 1
        stats = gateway.stats_summary()
        print(
            f"kill audit: {n_ok}/{len(futures)} served, "
            f"{n_structured} structured route/shed, "
            f"{n_unstructured} unstructured, {n_hung} hung futures, "
            f"{stats['gateway']['failovers']} failovers, "
            f"survivors max rel diff {kill_worst:.2e}"
        )

        # 3. the operator view: gateway + backends + summed fleet
        fleet = stats["fleet"]
        print(
            f"fleet stats: {fleet['requests']} requests, "
            f"{fleet['backends_live']}/{fleet['backends_total']} backends live"
        )

        if n_hung or n_unstructured or not n_ok or kill_worst > PARITY_RTOL:
            print(
                f"FAIL: failover contract broken ({n_hung} hung, "
                f"{n_unstructured} unstructured, {n_ok} ok, "
                f"survivor diff {kill_worst:.2e})",
                file=sys.stderr,
            )
            return 1
    finally:
        if gateway is not None:
            gateway.close()
        for server in servers:
            server.close()

    print("fleet == local: the gateway is a one-line swap")
    return 0


if __name__ == "__main__":
    sys.exit(main())
