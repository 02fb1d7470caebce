"""Command-line interface: build, inspect, and query Deep Sketches.

The file-based analogue of the demo's workflow::

    python -m repro build --dataset imdb --scale 0.5 \
        --queries 5000 --epochs 12 --samples 500 --out imdb.sketch
    python -m repro info imdb.sketch
    python -m repro estimate imdb.sketch \
        "SELECT COUNT(*) FROM title t WHERE t.production_year>2010;"
    python -m repro plan \
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id=t.id;" imdb.sketch
    python -m repro compare --dataset imdb --scale 0.5 imdb.sketch \
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id=t.id AND t.production_year>2010;"
"""

from __future__ import annotations

import argparse
import sys

from .core import DeepSketch, SketchConfig, build_sketch
from .datasets import load_dataset
from .errors import ReproError
from .workload import spec_for_imdb, spec_for_tpch

_SPECS = {"imdb": spec_for_imdb, "tpch": spec_for_tpch}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deep Sketches: learned cardinality estimation "
        "(reproduction of Kipf et al., SIGMOD 2019)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="train a sketch and save it")
    build.add_argument("--dataset", choices=sorted(_SPECS), default="imdb")
    build.add_argument("--scale", type=float, default=0.5)
    build.add_argument("--queries", type=int, default=5000,
                       help="number of training queries")
    build.add_argument("--epochs", type=int, default=12)
    build.add_argument("--samples", type=int, default=500,
                       help="materialized samples per table")
    build.add_argument("--hidden", type=int, default=64,
                       help="MSCN hidden units")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--name", default=None, help="sketch name")
    build.add_argument("--out", required=True, help="output path")

    info = commands.add_parser("info", help="describe a saved sketch")
    info.add_argument("sketch", help="path to a saved sketch")

    estimate = commands.add_parser(
        "estimate",
        help="estimate a SQL query (against a local sketch file, or a "
        "remote serving endpoint via --url)",
    )
    estimate.add_argument("sketch", nargs="?", default=None,
                          help="path to a saved sketch (omit with --url)")
    estimate.add_argument("sql", help="SELECT COUNT(*) query text")
    estimate.add_argument("--url", default=None,
                          help="estimate remotely against a running "
                          "'repro serve --http' front door "
                          "(e.g. http://127.0.0.1:8080)")

    plan = commands.add_parser(
        "plan",
        help="join-order advice for one SQL query: every connected "
        "subplan estimated as one batch, the answers injected into "
        "the C_out dynamic-programming enumerator (local sketch "
        "files, or one POST /v1/plan round trip via --url)",
    )
    plan.add_argument("sql", help="SELECT COUNT(*) query text")
    plan.add_argument("sketches", nargs="*",
                      help="saved sketch file(s); the query routes to the "
                      "narrowest covering sketch (omit with --url)")
    plan.add_argument("--url", default=None,
                      help="plan remotely against a running "
                      "'repro serve --http' front door or gateway "
                      "(e.g. http://127.0.0.1:8080)")
    plan.add_argument("--sketch", default=None,
                      help="pin the plan to a named sketch instead of "
                      "routing by table coverage")

    compare = commands.add_parser(
        "compare",
        help="estimate with the sketch AND the baselines AND the truth",
    )
    compare.add_argument("--dataset", choices=sorted(_SPECS), default="imdb")
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("sketch", help="path to a saved sketch")
    compare.add_argument("sql", help="SELECT COUNT(*) query text")

    serve = commands.add_parser(
        "serve",
        help="answer a stream of SQL queries with batched estimation, "
        "or run the HTTP front door (--http)",
    )
    serve.add_argument("sketches", nargs="+",
                       help="saved sketch file(s); queries are routed to "
                       "the narrowest covering sketch")
    serve.add_argument("--sql", default=None,
                       help="stream mode: file with one SQL query per line "
                       "('-' = stdin, the default)")
    serve.add_argument("--http", action="store_true",
                       help="serve over HTTP instead of a SQL stream: "
                       "POST /v1/estimate, POST /v1/estimate_batch, "
                       "GET /v1/stats, GET /v1/healthz (versioned JSON "
                       "wire protocol; stop with Ctrl-C)")
    serve.add_argument("--host", default=None,
                       help="--http only: bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="--http only: TCP port (default 8080; 0 picks "
                       "an ephemeral port)")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="micro-batch size per model forward pass")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the per-sketch estimate cache")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="start the server's latency-bounded background "
                       "flush loop instead of flushing the stream on the "
                       "calling thread")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="async/http only: max queueing delay before a "
                       "partial micro-batch is flushed")
    serve.add_argument("--executor", choices=("inline", "process"),
                       default="inline",
                       help="where micro-batches execute: the calling/flush "
                       "thread (inline) or a process pool of shipped "
                       "weight snapshots (multi-core)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker count for --executor process")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="admission control: bound on buffered requests; "
                       "overload returns structured shed errors instead of "
                       "queueing without limit (meant for --async, where a "
                       "background flusher drains while clients submit; "
                       "without it the whole stream is buffered first, so a "
                       "bound below the stream length sheds its tail)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline: requests waiting longer "
                       "resolve as structured deadline errors instead of "
                       "consuming model time (meant for --async; without it "
                       "the whole stream is buffered before one flush, "
                       "so a deadline shorter than that buffering window "
                       "expires the stream's head)")

    gateway = commands.add_parser(
        "gateway",
        help="run the sharded multi-node serving gateway: one wire-v1 "
        "front door fanning out over N backend servers with "
        "replication, health-checked failover, and merged fleet stats",
    )
    gateway.add_argument("sketches", nargs="*",
                         help="local-fleet mode: saved sketch file(s); "
                         "spawns --shards local backend servers on "
                         "ephemeral ports and shards the sketches "
                         "across them (omit when using --backend)")
    gateway.add_argument("--backend", action="append", default=None,
                         metavar="URL",
                         help="existing backend front door to fan out "
                         "over (repeatable); mutually exclusive with "
                         "sketch files")
    gateway.add_argument("--shards", type=int, default=None,
                         help="local-fleet mode: number of backend "
                         "servers to spawn (default: one per sketch)")
    gateway.add_argument("--replicas", type=int, default=1,
                         help="local-fleet mode: register each sketch "
                         "on this many shards (replicating a hot "
                         "sketch scales its throughput and survives "
                         "backend loss)")
    gateway.add_argument("--host", default=None,
                         help="gateway bind address (default 127.0.0.1)")
    gateway.add_argument("--port", type=int, default=None,
                         help="gateway TCP port (default 8080; 0 picks "
                         "an ephemeral port)")
    gateway.add_argument("--retries", type=int, default=2,
                         help="extra attempts per request after the "
                         "first, each against the next live replica")
    gateway.add_argument("--backoff-ms", type=float, default=50.0,
                         help="initial failover backoff (doubles per "
                         "retry, capped at 1s; connection loss fails "
                         "over without waiting)")
    gateway.add_argument("--health-interval", type=float, default=1.0,
                         help="seconds between backend health probes "
                         "(<= 0 disables the probe thread)")
    gateway.add_argument("--timeout", type=float, default=30.0,
                         help="per-round-trip timeout to a backend")
    gateway.add_argument("--max-batch", type=int, default=256,
                         help="local-fleet mode: micro-batch size on "
                         "the spawned backends")
    gateway.add_argument("--no-cache", action="store_true",
                         help="local-fleet mode: disable the spawned "
                         "backends' estimate caches")

    workload = commands.add_parser(
        "workload",
        help="templated workload suites: generate, split, and replay "
        "them as skewed/bursty traffic against a serving endpoint",
    )
    wl_commands = workload.add_subparsers(dest="workload_command", required=True)

    wl_gen = wl_commands.add_parser(
        "generate",
        help="draw a seeded template suite (joins, self-joins, range/"
        "string/IN predicate slots) and write it as JSON",
    )
    wl_gen.add_argument("--dataset", choices=sorted(_SPECS), default="imdb")
    wl_gen.add_argument("--scale", type=float, default=0.2)
    wl_gen.add_argument("--templates", type=int, default=8,
                        help="distinct templates to draw")
    wl_gen.add_argument("--per-template", dest="per_template", type=int,
                        default=50, help="query instances per template")
    wl_gen.add_argument("--max-joins", dest="max_joins", type=int, default=4)
    wl_gen.add_argument("--seed", type=int, default=0)
    wl_gen.add_argument("--label", action="store_true",
                        help="execute every instance for its true "
                        "cardinality (drops empty-result instances)")
    wl_gen.add_argument("--min-per-template", dest="min_per_template",
                        type=int, default=2,
                        help="--label only: drop templates left with "
                        "fewer than this many non-empty instances")
    wl_gen.add_argument("--out", default="-",
                        help="output JSON path ('-' = stdout)")

    wl_split = wl_commands.add_parser(
        "split",
        help="split a suite for generalization testing: held-out "
        "templates (default) or held-out literals (--within)",
    )
    wl_split.add_argument("suite", help="suite JSON from 'workload generate'")
    wl_split.add_argument("--test-fraction", dest="test_fraction",
                         type=float, default=0.25)
    wl_split.add_argument("--within", action="store_true",
                         help="hold literals out inside every template "
                         "instead of holding whole templates out")
    wl_split.add_argument("--seed", type=int, default=0)
    wl_split.add_argument("--train-out", dest="train_out", required=True,
                         help="output JSON path for the training side")
    wl_split.add_argument("--test-out", dest="test_out", required=True,
                         help="output JSON path for the test side")

    wl_replay = wl_commands.add_parser(
        "replay",
        help="replay a suite as a Zipf-skewed, bursty, open-loop stream "
        "against a serving endpoint and audit the outcome",
    )
    wl_replay.add_argument("suite", help="suite JSON from 'workload generate'")
    wl_replay.add_argument("sketches", nargs="*",
                          help="saved sketch file(s) for local mode: an "
                          "async server is spun up in-process (omit "
                          "with --url)")
    wl_replay.add_argument("--url", default=None,
                          help="replay against a running front door or "
                          "gateway (e.g. http://127.0.0.1:8080) instead "
                          "of a local server")
    wl_replay.add_argument("--requests", type=int, default=256)
    wl_replay.add_argument("--rate", type=float, default=2000.0,
                          help="arrival rate inside ON windows (q/s)")
    wl_replay.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.1,
                          help="template-popularity skew (0 = uniform)")
    wl_replay.add_argument("--burst-on-ms", dest="burst_on_ms", type=float,
                          default=50.0)
    wl_replay.add_argument("--burst-off-ms", dest="burst_off_ms", type=float,
                          default=100.0)
    wl_replay.add_argument("--time-scale", dest="time_scale", type=float,
                          default=1.0,
                          help="multiplier on scheduled gaps (0 = submit "
                          "as fast as possible)")
    wl_replay.add_argument("--timeout", type=float, default=60.0,
                          help="future-collection deadline (seconds)")
    wl_replay.add_argument("--seed", type=int, default=0)
    wl_replay.add_argument("--max-batch", type=int, default=64,
                          help="local mode: micro-batch size")
    wl_replay.add_argument("--max-queue-depth", type=int, default=None,
                          help="local mode: admission-control bound")

    lifecycle = commands.add_parser(
        "lifecycle",
        help="versioned model registry: save sketch versions, pin, "
        "roll back, and inspect the fleet's lifecycle state",
    )
    lc_commands = lifecycle.add_subparsers(
        dest="lifecycle_command", required=True
    )

    lc_save = lc_commands.add_parser(
        "save",
        help="store a saved sketch file as the next registry version "
        "(checksummed blob + manifest entry)",
    )
    lc_save.add_argument("sketch", help="path to a saved sketch file")
    lc_save.add_argument("--registry", required=True,
                         help="registry root directory (created if missing)")
    lc_save.add_argument("--note", default="",
                         help="free-form note recorded in the manifest")
    lc_save.add_argument("--no-activate", dest="activate",
                         action="store_false",
                         help="record the version without making it active")

    lc_list = lc_commands.add_parser(
        "list",
        help="list registered sketches with their active/pinned versions",
    )
    lc_list.add_argument("--registry", required=True)

    lc_status = lc_commands.add_parser(
        "status",
        help="full registry manifest as JSON (every version, checksums, "
        "notes, rollback count)",
    )
    lc_status.add_argument("--registry", required=True)

    lc_pin = lc_commands.add_parser(
        "pin",
        help="pin a version as the rollback target for a sketch",
    )
    lc_pin.add_argument("name", help="sketch name in the registry")
    lc_pin.add_argument("version", type=int, help="version number to pin")
    lc_pin.add_argument("--registry", required=True)

    lc_rollback = lc_commands.add_parser(
        "rollback",
        help="activate the pinned version (or the latest older one), "
        "verify its checksum, and optionally write the restored "
        "sketch to a file",
    )
    lc_rollback.add_argument("name", help="sketch name in the registry")
    lc_rollback.add_argument("--registry", required=True)
    lc_rollback.add_argument("--out", default=None,
                             help="write the restored sketch here so it "
                             "can be re-served")
    return parser


def _cmd_build(args) -> int:
    db = load_dataset(args.dataset, scale=args.scale)
    spec = _SPECS[args.dataset]()
    config = SketchConfig(
        sample_size=args.samples,
        n_training_queries=args.queries,
        epochs=args.epochs,
        hidden_units=args.hidden,
        seed=args.seed,
    )
    name = args.name or f"{args.dataset}-sketch"

    def progress(event):
        if event.stage == "train" and event.message:
            print(f"  {event.message}")

    sketch, report = build_sketch(db, spec, name=name, config=config, progress=progress)
    size = sketch.save(args.out)
    print(
        f"built {name!r} in {report.total_seconds:.1f}s "
        f"(val mean q-error {report.training.final_val_mean_qerror:.2f}); "
        f"saved {size / 1024:.0f} KiB to {args.out}"
    )
    return 0


def _cmd_info(args) -> int:
    sketch = DeepSketch.load(args.sketch)
    print(f"name       : {sketch.name}")
    print(f"tables     : {', '.join(sketch.tables)}")
    print(f"joins      : {len(sketch.featurizer.joins)}")
    print(f"columns    : {len(sketch.featurizer.columns)}")
    print(f"parameters : {sketch.model.num_parameters()}")
    print(f"samples    : {sketch.samples.total_rows()} rows "
          f"({sketch.samples.sample_size} per table)")
    print(f"footprint  : {sketch.footprint_bytes() / 1024:.0f} KiB")
    for key, value in sorted(sketch.metadata.items()):
        print(f"meta.{key}: {value}")
    return 0


def _cmd_estimate(args) -> int:
    if args.url is not None:
        from .serve import RemoteSketchServer

        with RemoteSketchServer(args.url) as client:
            response = client.estimate(args.sql)
        if not response.ok:
            print(f"error[{response.code}]: {response.error}", file=sys.stderr)
            return 1
        print(f"{response.estimate:.0f}")
        return 0
    sketch = DeepSketch.load(args.sketch)
    estimate = sketch.estimate(args.sql)
    print(f"{estimate:.0f}")
    return 0


def _cmd_plan(args) -> int:
    import json

    if args.url is not None:
        from .serve import RemoteSketchServer

        with RemoteSketchServer(args.url) as client:
            response = client.plan(args.sql, args.sketch)
    else:
        from .core import SketchManager
        from .serve import SketchServer

        manager = SketchManager(db=None)
        for path in args.sketches:
            manager.register_sketch(DeepSketch.load(path))
        with SketchServer(manager) as server:
            response = server.plan(args.sql, args.sketch)
    payload = {
        "ok": response.ok,
        "join_order": response.join_order,
        "estimated_cost": response.estimated_cost,
        "sketch": response.sketch,
        "degraded": response.degraded,
        "subplans": [
            {
                "aliases": list(sub.aliases),
                "estimate": sub.estimate,
                "cached": sub.cached,
                "degraded": sub.degraded,
                "code": sub.code,
                "error": sub.error,
            }
            for sub in response.subplans
        ],
        "error": response.error,
        "code": response.code,
        "estimate_ms": response.estimate_ms,
        "enumerate_ms": response.enumerate_ms,
    }
    print(json.dumps(payload, indent=2))
    return 0 if response.ok else 1


def _cmd_compare(args) -> int:
    from .baselines import HyperEstimator, PostgresEstimator
    from .db import execute_count, parse_sql
    from .metrics import qerror

    sketch = DeepSketch.load(args.sketch)
    db = load_dataset(args.dataset, scale=args.scale)
    query = parse_sql(args.sql)
    truth = execute_count(db, query)
    rows = [
        ("Deep Sketch", sketch.estimate(query)),
        ("HyPer", HyperEstimator(db, sample_size=sketch.samples.sample_size).estimate(query)),
        ("PostgreSQL", PostgresEstimator(db).estimate(query)),
    ]
    print(f"{'system':<14} {'estimate':>12} {'q-error':>10}")
    print(f"{'truth':<14} {truth:>12}")
    for name, estimate in rows:
        print(f"{name:<14} {estimate:>12.0f} {qerror(estimate, truth):>10.2f}")
    return 0


def _read_sql_lines(path: str) -> list[str]:
    """SQL queries, one per line; blank lines and #-comments skipped."""
    if path == "-":
        lines = sys.stdin.readlines()
    else:
        with open(path) as f:
            lines = f.readlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


def _print_stats_snapshot(summary: dict) -> None:
    """The operator-facing shutdown snapshot: one JSON line on stderr.

    Exactly the ``stats_summary()`` / ``GET /v1/stats`` shape, so shed
    and deadline counters, queue depth, and latency percentiles are
    visible without instrumenting code.
    """
    import json

    print("stats_summary: " + json.dumps(summary, sort_keys=True),
          file=sys.stderr)


def _http_wait(server) -> None:
    """Block until the front door stops (Ctrl-C).  Module-level so
    tests can replace it with a driver that talks to ``server.url``."""
    server.join()


def _cmd_serve_http(args, manager, engine_knobs) -> int:
    from .serve import ServeConfig, SketchHTTPServer

    server = SketchHTTPServer(
        manager,
        ServeConfig(max_wait_ms=args.max_wait_ms, **engine_knobs),
        host=args.host if args.host is not None else "127.0.0.1",
        port=args.port if args.port is not None else 8080,
    )
    server.start()
    print(
        f"serving {len(args.sketches)} sketch(es) on {server.url} "
        "(POST /v1/estimate, POST /v1/estimate_batch, GET /v1/stats, "
        "GET /v1/healthz; Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        _http_wait(server)
    except KeyboardInterrupt:
        print("shutting down (draining accepted requests)...", file=sys.stderr)
    finally:
        server.close()
        _print_stats_snapshot(server.stats_summary())
    return 0


def _cmd_serve(args) -> int:
    import time

    from .core import SketchManager
    from .serve import ServeConfig, SketchServer

    manager = SketchManager(db=None)
    for path in args.sketches:
        manager.register_sketch(DeepSketch.load(path))
    engine_knobs = dict(
        max_batch_size=args.max_batch,
        use_cache=not args.no_cache,
        executor=args.executor,
        executor_workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
    )
    if args.http:
        return _cmd_serve_http(args, manager, engine_knobs)
    requests = _read_sql_lines(args.sql if args.sql is not None else "-")
    if args.use_async:
        server = SketchServer(
            manager,
            ServeConfig(max_wait_ms=args.max_wait_ms, **engine_knobs),
        )
        start = time.perf_counter()
        with server.start():
            # submit_many, not serve: a blocking serve() would answer the
            # stream on this thread, and this mode is the loop's.
            futures = server.submit_many(requests)
            responses = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
    else:
        with SketchServer(manager, ServeConfig(**engine_knobs)) as server:
            start = time.perf_counter()
            responses = server.serve(requests)
            # Captured before __exit__: executor teardown (process-pool
            # joins) is lifecycle cost, not serving throughput.
            elapsed = time.perf_counter() - start
    for response in responses:
        if response.ok:
            flags = " (cached)" if response.cached else ""
            print(f"{response.estimate:.0f}\t{response.sketch}{flags}")
        else:
            kind = f"error:{response.code}" if response.code else "error"
            print(f"{kind}\t{response.error}")
    stats = server.stats
    summary = server.stats_summary()
    print(
        f"served {stats.n_answered}/{stats.n_requests} requests in "
        f"{elapsed:.3f}s ({stats.n_answered / max(elapsed, 1e-9):.0f} q/s; "
        f"executor={summary['executor']}, "
        f"{stats.n_forward_batches} forward batches, "
        f"{stats.n_cache_hits} cache hits, {stats.n_errors} errors, "
        f"{stats.n_shed} shed, {stats.n_deadline_missed} deadline-missed)",
        file=sys.stderr,
    )
    if args.use_async:
        waits = server.wait_summary()
        print(
            f"async waits: p50 {waits['p50'] * 1000:.2f}ms, "
            f"p99 {waits['p99'] * 1000:.2f}ms "
            f"({stats.n_flushes} flushes: {stats.n_flushes_full} full, "
            f"{stats.n_flushes_timed} timed, {stats.n_flushes_idle} idle, "
            f"{stats.n_flushes_drain} drain; "
            f"{stats.n_deduped} deduped, "
            f"{stats.n_fast_cache_hits} fast cache hits)",
            file=sys.stderr,
        )
    _print_stats_snapshot(summary)
    return 0 if stats.n_errors == 0 else 1


def _shard_assignments(
    n_sketches: int, n_shards: int, replicas: int
) -> list[list[int]]:
    """Round-robin shard map: sketch ``i`` lives on shards
    ``(i + r) % n_shards`` for ``r`` in ``range(replicas)``."""
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    for i in range(n_sketches):
        for r in range(replicas):
            shards[(i + r) % n_shards].append(i)
    return shards


def _cmd_gateway(args) -> int:
    from .core import SketchManager
    from .serve import ServeConfig, SketchGateway, SketchHTTPServer

    local_backends: list = []
    if args.backend:
        urls = list(args.backend)
    else:
        # Local-fleet mode: spawn the backends ourselves and shard the
        # sketch files across them with --replicas-way replication.
        sketches = [DeepSketch.load(path) for path in args.sketches]
        n_shards = args.shards if args.shards is not None else len(sketches)
        config = ServeConfig(
            max_batch_size=args.max_batch, use_cache=not args.no_cache
        )
        assignments = _shard_assignments(
            len(sketches), n_shards, args.replicas
        )
        for members in assignments:
            manager = SketchManager(db=None)
            for i in sorted(set(members)):
                manager.register_sketch(sketches[i])
            server = SketchHTTPServer(manager, config, port=0).start()
            local_backends.append(server)
            names = ", ".join(sketches[i].name for i in sorted(set(members)))
            print(
                f"  shard {server.url}: {names or '(empty)'}",
                file=sys.stderr,
            )
        urls = [server.url for server in local_backends]

    health = args.health_interval if args.health_interval > 0 else None
    door = None
    try:
        gateway = SketchGateway(
            urls,
            timeout=args.timeout,
            retries=args.retries,
            backoff_s=args.backoff_ms / 1000.0,
            health_interval_s=health,
        )
        door = SketchHTTPServer(
            service=gateway,
            host=args.host if args.host is not None else "127.0.0.1",
            port=args.port if args.port is not None else 8080,
        )
        door.start()
        live = sum(
            1 for status in gateway.backend_status().values()
            if status["alive"]
        )
        print(
            f"gateway on {door.url} over {len(urls)} backend(s) "
            f"({live} live; sketches: "
            f"{', '.join(gateway.list_sketches()) or '(none)'}; "
            "Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            _http_wait(door)
        except KeyboardInterrupt:
            print("shutting down the gateway...", file=sys.stderr)
    finally:
        if door is not None:
            summary = door.stats_summary()
            door.close()  # closes the gateway with it
            _print_stats_snapshot(summary)
        for server in local_backends:
            server.close()
    return 0


def _write_suite(suite, path: str) -> None:
    import json

    payload = json.dumps(suite.to_json(), indent=2) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as f:
            f.write(payload)


def _load_suite(path: str):
    import json

    from .workload import TemplateSuite

    with open(path) as f:
        return TemplateSuite.from_json(json.load(f))


def _cmd_workload_generate(args) -> int:
    from .workload import SuiteConfig, generate_template_suite
    from .workload.generator import spec_for_imdb_templates

    db = load_dataset(args.dataset, scale=args.scale)
    if args.dataset == "imdb":
        spec = spec_for_imdb_templates(max_joins=args.max_joins)
    else:
        spec = _SPECS[args.dataset](max_joins=args.max_joins)
    suite = generate_template_suite(
        db,
        spec,
        SuiteConfig(
            n_templates=args.templates,
            queries_per_template=args.per_template,
            max_joins=args.max_joins,
        ),
        seed=args.seed,
    )
    if args.label:
        suite = suite.label(
            db, min_queries_per_template=args.min_per_template
        )
    _write_suite(suite, args.out)
    print(
        f"generated {len(suite)} templates / {suite.n_queries} instances "
        f"({'labeled' if suite.labeled else 'unlabeled'}; "
        f"digest {suite.digest()[:12]}...)",
        file=sys.stderr,
    )
    return 0


def _cmd_workload_split(args) -> int:
    from .workload import split_by_template, split_within_template

    suite = _load_suite(args.suite)
    if args.within:
        split = split_within_template(suite, args.test_fraction, seed=args.seed)
        kind = "held-out literals within every template"
    else:
        split = split_by_template(suite, args.test_fraction, seed=args.seed)
        kind = "held-out templates"
    _write_suite(split.train, args.train_out)
    _write_suite(split.test, args.test_out)
    print(
        f"split by {kind}: train {len(split.train)} templates / "
        f"{split.train.n_queries} instances -> {args.train_out}; "
        f"test {len(split.test)} templates / {split.test.n_queries} "
        f"instances -> {args.test_out}",
        file=sys.stderr,
    )
    return 0


def _cmd_workload_replay(args) -> int:
    import json

    from .workload import TrafficConfig, TrafficShaper

    suite = _load_suite(args.suite)
    shaper = TrafficShaper(
        suite,
        TrafficConfig(
            n_requests=args.requests,
            zipf_s=args.zipf_s,
            rate_qps=args.rate,
            burst_on_s=args.burst_on_ms / 1000.0,
            burst_off_s=args.burst_off_ms / 1000.0,
            time_scale=args.time_scale,
            timeout_s=args.timeout,
        ),
        seed=args.seed,
    )
    if args.url is not None:
        from .serve import RemoteSketchServer

        with RemoteSketchServer(args.url) as service:
            result = shaper.replay(service)
    else:
        from .core import SketchManager
        from .serve import ServeConfig, SketchServer

        manager = SketchManager(db=None)
        for path in args.sketches:
            manager.register_sketch(DeepSketch.load(path))
        config = ServeConfig(
            max_batch_size=args.max_batch,
            max_queue_depth=args.max_queue_depth,
        )
        with SketchServer(manager, config).start() as service:
            result = shaper.replay(service)
    print(json.dumps(result.audit(), indent=2))
    if not result.ok:
        print(
            f"error: replay audit failed ({result.n_unresolved} hung "
            f"futures, {result.n_unstructured} unstructured failures)",
            file=sys.stderr,
        )
        return 1
    return 0


_WORKLOAD_COMMANDS = {
    "generate": _cmd_workload_generate,
    "split": _cmd_workload_split,
    "replay": _cmd_workload_replay,
}


def _cmd_workload(args) -> int:
    return _WORKLOAD_COMMANDS[args.workload_command](args)


def _open_registry(path: str):
    from .serve.registry import SketchRegistry

    return SketchRegistry(path)


def _cmd_lifecycle_save(args) -> int:
    sketch = DeepSketch.load(args.sketch)
    registry = _open_registry(args.registry)
    version = registry.save(sketch, note=args.note, activate=args.activate)
    state = "active" if args.activate else "inactive"
    print(f"saved {sketch.name!r} as version {version} ({state})")
    return 0


def _cmd_lifecycle_list(args) -> int:
    registry = _open_registry(args.registry)
    names = registry.list_sketches()
    if not names:
        print("registry is empty")
        return 0
    for name in names:
        versions = registry.versions(name)
        active = registry.active_version(name)
        pinned = registry.pinned(name)
        pin_note = f", pinned v{pinned}" if pinned is not None else ""
        print(
            f"{name}: {len(versions)} version(s), "
            f"active v{active}{pin_note}"
        )
    return 0


def _cmd_lifecycle_status(args) -> int:
    import json

    registry = _open_registry(args.registry)
    print(json.dumps(registry.describe(), indent=2))
    return 0


def _cmd_lifecycle_pin(args) -> int:
    registry = _open_registry(args.registry)
    registry.pin(args.name, args.version)
    print(f"pinned {args.name!r} to version {args.version}")
    return 0


def _cmd_lifecycle_rollback(args) -> int:
    registry = _open_registry(args.registry)
    version = registry.rollback(args.name)
    sketch = registry.load(args.name, version)
    if args.out is not None:
        sketch.save(args.out)
        print(
            f"rolled {args.name!r} back to version {version}; "
            f"restored sketch written to {args.out}"
        )
    else:
        print(f"rolled {args.name!r} back to version {version}")
    return 0


_LIFECYCLE_COMMANDS = {
    "save": _cmd_lifecycle_save,
    "list": _cmd_lifecycle_list,
    "status": _cmd_lifecycle_status,
    "pin": _cmd_lifecycle_pin,
    "rollback": _cmd_lifecycle_rollback,
}


def _cmd_lifecycle(args) -> int:
    return _LIFECYCLE_COMMANDS[args.lifecycle_command](args)


_COMMANDS = {
    "build": _cmd_build,
    "info": _cmd_info,
    "estimate": _cmd_estimate,
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "gateway": _cmd_gateway,
    "workload": _cmd_workload,
    "lifecycle": _cmd_lifecycle,
}


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Cross-flag validation argparse cannot express (exits with 2)."""
    if args.command == "estimate":
        if args.url is not None and args.sketch is not None:
            parser.error(
                "estimate takes a sketch path OR --url, not both "
                "(remote mode estimates against the server's sketches)"
            )
        if args.url is None and args.sketch is None:
            parser.error("estimate needs a sketch path (or --url for remote)")
    elif args.command == "plan":
        if args.url is not None and args.sketches:
            parser.error(
                "plan takes sketch file(s) OR --url, not both "
                "(remote mode plans against the server's sketches)"
            )
        if args.url is None and not args.sketches:
            parser.error("plan needs sketch file(s) (or --url for remote)")
    elif args.command == "serve":
        if args.http and args.use_async:
            parser.error(
                "--http and --async are mutually exclusive: the HTTP "
                "front door already drives the background-loop engine"
            )
        if not args.http and (args.host is not None or args.port is not None):
            parser.error("--host/--port only apply to --http mode")
        if args.http and args.sql is not None:
            parser.error(
                "--sql only applies to stream mode: the HTTP front door "
                "takes its queries from the network, not a file"
            )
    elif args.command == "workload" and args.workload_command == "replay":
        if args.url is not None and args.sketches:
            parser.error(
                "workload replay takes sketch files (local mode) OR "
                "--url (remote endpoint), not both"
            )
        if args.url is None and not args.sketches:
            parser.error(
                "workload replay needs sketch file(s) or --url"
            )
    elif args.command == "gateway":
        if bool(args.backend) == bool(args.sketches):
            parser.error(
                "gateway takes sketch files (local-fleet mode) OR "
                "--backend URLs (existing fleet), not both and not "
                "neither"
            )
        if args.backend and (args.shards is not None or args.replicas != 1):
            parser.error(
                "--shards/--replicas only apply to local-fleet mode: "
                "an existing fleet's sharding is decided by what each "
                "backend serves"
            )
        if args.sketches:
            n_shards = (
                args.shards if args.shards is not None else len(args.sketches)
            )
            if n_shards < 1:
                parser.error("--shards must be >= 1")
            if not 1 <= args.replicas <= n_shards:
                parser.error(
                    "--replicas must be between 1 and the shard count "
                    f"({n_shards})"
                )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
