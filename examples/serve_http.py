"""The HTTP front door end to end: server, curl-style JSON, client SDK.

Demonstrates that remote serving is the *same* estimation API as
in-process serving (the ``SketchService`` protocol):

1. build a small Deep Sketch over the synthetic IMDb,
2. start a ``SketchHTTPServer`` (the stdlib-only front door) on an
   ephemeral port,
3. speak the versioned wire protocol by hand — the raw JSON a ``curl``
   user would POST to ``/v1/estimate`` — and read the structured
   response envelope,
4. serve a query stream through the ``RemoteSketchServer`` client SDK
   (one-line swap for the in-process facade),
5. assert **parity**: remote estimates match the in-process
   ``SketchServer`` on the same stream to <= 1e-12 relative (observed:
   0.0 — the wire does not change numbers),
6. print the ``GET /v1/stats`` telemetry snapshot — the same JSON
   local ``stats_summary()`` callers see.

Run from the repository root::

    python examples/serve_http.py           # full (a minute or two)
    python examples/serve_http.py --tiny    # smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SketchConfig  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.serve import (  # noqa: E402
    RemoteSketchServer,
    ServeConfig,
    SketchHTTPServer,
    SketchServer,
    SketchService,
)
from repro.workload import (  # noqa: E402
    JobLightConfig,
    generate_job_light,
    spec_for_imdb,
)

#: The acceptance bound: remote estimates vs the in-process facade.
PARITY_RTOL = 1e-12


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


def curl_style_estimate(url: str, sql: str) -> dict:
    """What ``curl -X POST $URL/v1/estimate -d '{...}'`` would do."""
    body = json.dumps(
        {"protocol_version": 1, "sql": sql, "sketch": None}
    ).encode()
    request = urllib.request.Request(
        url + "/v1/estimate",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


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
        local_responses = local.serve(workload)

    with SketchHTTPServer(
        manager, ServeConfig(use_cache=False), port=0
    ) as front_door:
        print(f"front door listening on {front_door.url}", file=sys.stderr)

        # 1. the raw wire protocol, as curl would speak it
        envelope = curl_style_estimate(front_door.url, distinct[0].to_sql())
        print(
            "curl-style envelope: "
            f"ok={envelope['ok']} estimate={envelope['estimate']:.1f} "
            f"sketch={envelope['sketch']} server_ms={envelope['server_ms']:.2f}"
        )

        # 2. the client SDK — the same SketchService surface as local
        with RemoteSketchServer(front_door.url) as remote:
            assert isinstance(remote, SketchService)
            health = remote.healthz()
            print(f"healthz: {health['status']} sketches={health['sketches']}")
            remote_responses = remote.serve(workload)
            timings = remote.timings()

        # 3. parity: the wire must not change numbers
        worst = 0.0
        n_errors = 0
        for local_r, remote_r in zip(local_responses, remote_responses):
            if not (local_r.ok and remote_r.ok):
                n_errors += 1
                continue
            rel = abs(remote_r.estimate - local_r.estimate) / abs(local_r.estimate)
            worst = max(worst, rel)
        print(
            f"parity: {len(workload)} requests, max rel diff {worst:.2e} "
            f"({n_errors} errors)"
        )
        print(
            f"client timings: wire p50 {timings['wire']['p50'] * 1000:.2f}ms, "
            f"server p50 {timings['server']['p50'] * 1000:.2f}ms"
        )

        # 4. the operator view — same JSON shape as stats_summary()
        stats = json.loads(
            urllib.request.urlopen(
                front_door.url + "/v1/stats", timeout=30
            ).read()
        )
        print(
            f"GET /v1/stats: {stats['requests']} requests, "
            f"{stats['forward_batches']} forward batches, "
            f"executor={stats['executor']}"
        )

        if n_errors or worst > PARITY_RTOL:
            print(
                f"FAIL: remote serving diverged (max rel diff {worst:.2e}, "
                f"{n_errors} errors)",
                file=sys.stderr,
            )
            return 1
    print("remote == local: the front door is a one-line swap")
    return 0


if __name__ == "__main__":
    sys.exit(main())
