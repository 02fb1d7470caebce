"""Bursty templated traffic against a live gateway, end to end.

Demonstrates the templated workload subsystem driving the serving
tier's degradation contract:

1. build a small Deep Sketch over the synthetic IMDb,
2. generate a seedable **template suite** (range / BETWEEN / IN
   predicates, join chains, self-joins) and label it with exact
   cardinalities,
3. replay it through a ``TrafficShaper`` — Zipf-skewed template mix,
   on/off bursts, **open-loop** (arrival times never wait for
   completions) — against a two-backend ``SketchGateway`` fleet with
   bounded admission queues,
4. audit the contract: every future resolves (zero hangs), failures
   carry structured codes only, and each backend's queue-depth
   high-water mark stays within its configured bound.

Run from the repository root::

    python examples/workload_stress.py           # full (a minute or two)
    python examples/workload_stress.py --tiny    # smoke run (seconds)
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
from repro.serve import ServeConfig, SketchGateway, SketchHTTPServer  # noqa: E402
from repro.workload import (  # noqa: E402
    SuiteConfig,
    TrafficConfig,
    TrafficShaper,
    generate_template_suite,
    spec_for_imdb,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--templates", type=int, default=10)
    parser.add_argument("--per-template", type=int, default=20)
    parser.add_argument("--requests", type=int, default=512)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke configuration (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.tiny:
        args.scale, args.queries, args.epochs = 0.05, 300, 2
        args.samples, args.hidden = 50, 16
        args.templates, args.per_template = 5, 8
        args.requests, args.queue_depth = 96, 8

    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    manager = SketchManager(db)
    print(
        f"building sketch (scale={args.scale}, {args.queries} training "
        f"queries, {args.epochs} epochs)...",
        file=sys.stderr,
    )
    # The suite uses the JOB-light spec so every instance is in scope
    # for the sketch; swap in spec_for_imdb_templates for deeper chains
    # (out-of-scope templates then fail with structured route codes).
    spec = spec_for_imdb(max_joins=2)
    sketch, _ = manager.create_sketch(
        "imdb",
        spec,
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=0,
        ),
    )

    print(
        f"generating {args.templates} templates x {args.per_template} "
        "instances...",
        file=sys.stderr,
    )
    suite = generate_template_suite(
        db,
        spec,
        SuiteConfig(
            n_templates=args.templates,
            queries_per_template=args.per_template,
            max_joins=2,
        ),
        seed=13,
    )
    suite = suite.label(db, min_queries_per_template=2)
    print(f"suite digest {suite.digest()[:12]}", file=sys.stderr)

    traffic = TrafficConfig(
        n_requests=args.requests,
        rate_qps=3000.0,
        zipf_s=1.1,
        burst_on_s=0.02,
        burst_off_s=0.03,
    )
    print(
        f"replaying {args.requests} bursty requests through a 2-backend "
        f"gateway (queue depth {args.queue_depth})...",
        file=sys.stderr,
    )
    # Backends run with caching off and a bounded queue, so every
    # accepted distinct query is real model work and the overflow sheds.
    servers = []
    for _ in range(2):
        backend = SketchManager(db=None)
        backend.register_sketch(sketch)
        servers.append(
            SketchHTTPServer(
                backend,
                ServeConfig(
                    max_batch_size=max(8, args.queue_depth // 2),
                    use_cache=False,
                    max_queue_depth=args.queue_depth,
                ),
                port=0,
            ).start()
        )
    try:
        with SketchGateway(
            [server.url for server in servers], health_interval_s=None
        ) as gateway:
            replay = TrafficShaper(suite, traffic, seed=1).replay(gateway)
            stats = gateway.stats_summary()
    finally:
        for server in servers:
            server.close()
    peaks = [
        int(summary["queue_depth_peak"])
        for summary in stats["backends"].values()
        if summary is not None
    ]
    bounded = all(peak <= args.queue_depth for peak in peaks)

    audit = replay.audit()
    audit.update(
        queue_depth_peaks=peaks,
        bounded=bounded,
        n_failovers=int(stats["gateway"]["failovers"]),
    )
    print(json.dumps(audit, indent=2))
    if not (replay.ok and bounded and replay.n_ok > 0):
        print("STRESS AUDIT FAILED", file=sys.stderr)
        return 1
    print("stress audit passed: zero hung futures, structured codes only, "
          "queues bounded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
