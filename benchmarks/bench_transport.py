"""Transport fast path: JSON keep-alive vs binary frames vs in-process.

PR 9's perf claim, quantified.  The harness builds a tiny sketch,
starts a real :class:`~repro.serve.http.SketchHTTPServer` (which runs
its binary frame listener next to the HTTP socket), and measures the
same request stream through three doors:

* **in-process** — the ``SketchServer`` facade; the floor every
  transport's overhead is measured against;
* **JSON/HTTP** — the compatibility transport, now over *keep-alive*
  pooled connections.  ``connections_opened`` is gated: a sequential
  client must dial once, not once per request (the regression this
  bench exists to catch — the SDK used to open a fresh connection per
  round trip);
* **binary frames** — the negotiated zero-parse transport
  (:mod:`repro.serve.wire`); per-request overhead of the batched path
  is the headline number (<50µs/request on a warm localhost pair, vs
  ~1.2ms for one-shot JSON singles).

Every path is parity-gated at 1e-12 against the in-process answers —
a faster wire must not change a single number.

The **shared-memory section** measures the other half of the zero-copy
story: the same process executor once installing pickled sketch payloads and
once installing :class:`~repro.serve.shm.SegmentDescriptor` handles —
``shm_snapshots`` is the only thing that differs.  Gates: the
descriptor crossing the process boundary is a fraction of the pickle
blob, every worker actually maps the published segment
(``/proc/<pid>/maps``) instead of holding a private copy, estimates are
*exactly* equal (same bytes, not approximately), and no segment
survives engine close.  Worker RSS is recorded alongside.

Timing gates run only in the full configuration (``--tiny`` keeps the
correctness and lifecycle gates; sub-millisecond localhost timings on
shared CI runners are too noisy for hard ratios).

Every run writes machine-readable results to
``benchmarks/results/BENCH_transport.json`` (sections + config + gates
+ pass) plus the human-readable ``bench_transport.txt``.

Run from the repository root::

    python benchmarks/bench_transport.py          # full (minutes)
    python benchmarks/bench_transport.py --tiny   # CI smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.core import SketchConfig  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.serve import (  # noqa: E402
    RemoteSketchServer,
    ServeConfig,
    SketchHTTPServer,
    SketchServer,
    live_segment_names,
)
from repro.serve.shm import SnapshotSegment  # noqa: E402
from repro.workload import (  # noqa: E402
    JobLightConfig,
    generate_job_light,
    spec_for_imdb,
)

#: The ``--tiny`` smoke configuration: small enough for CI seconds,
#: large enough to exercise batching, routing, and the cache.
TINY_TRANSPORT_ARGS = {
    "scale": 0.05,
    "queries": 300,
    "epochs": 2,
    "samples": 50,
    "hidden": 16,
    "distinct": 12,
    "batch": 64,
    "singles": 32,
}

#: Parity bound between any transport and the in-process facade.
PARITY_RTOL = 1e-12

#: Full-configuration gate: the binary batched path must cost less than
#: this much wire overhead per request (µs) over the in-process floor.
MAX_BINARY_BATCH_OVERHEAD_US = 50.0

#: Keep-alive gate: a sequential client's whole run must fit in this
#: many TCP dials per transport (one, plus one for slack on a dropped
#: idle connection).  The one-shot defect dialed once per request.
MAX_CONNECTIONS_PER_CLIENT = 2


def _max_rel_diff(values, reference) -> float:
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(values - reference) / scale)) if len(values) else 0.0


def _worker_rss_kb(pids) -> dict[int, int]:
    rss = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        rss[pid] = int(line.split()[1])
                        break
        except OSError:  # pragma: no cover - non-Linux / worker gone
            pass
    return rss


def _workers_mapping_segment(pids, segment_name: str) -> list[bool]:
    mapped = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/maps") as f:
                mapped.append(segment_name in f.read())
        except OSError:  # pragma: no cover - non-Linux / worker gone
            mapped.append(False)
    return mapped


def run(args) -> int:
    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    manager = SketchManager(db)
    print(
        f"building sketch (scale={args.scale}, {args.queries} training "
        f"queries, {args.epochs} epochs)...",
        file=sys.stderr,
    )
    manager.create_sketch(
        "bench",
        spec_for_imdb(),
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=args.seed,
        ),
    )
    distinct = generate_job_light(
        db, JobLightConfig(n_queries=args.distinct, seed=args.seed + 1)
    )
    stream = [distinct[i % len(distinct)] for i in range(args.batch)]
    singles = stream[: args.singles]
    text_lines: list[str] = []

    # ------------------------------------------------------------------
    # in-process floor
    # ------------------------------------------------------------------
    config = ServeConfig(use_cache=False, max_batch_size=64)
    with SketchServer(manager, config) as inproc:
        t0 = time.perf_counter()
        for query in singles:
            inproc.estimate(query)
        inproc_single_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = [r.estimate for r in inproc.serve(list(stream))]
        inproc_batch_s = time.perf_counter() - t0
    assert all(v is not None for v in reference)

    # ------------------------------------------------------------------
    # the two wire transports against one live front door
    # ------------------------------------------------------------------
    transports: dict[str, dict] = {}
    with SketchHTTPServer(manager, config, port=0) as server:
        for name in ("json", "binary"):
            print(f"measuring {name} transport...", file=sys.stderr)
            with RemoteSketchServer(server.url, transport=name) as client:
                negotiated = client.negotiate_transport()
                t0 = time.perf_counter()
                for query in singles:
                    client.estimate(query)
                single_s = time.perf_counter() - t0
                opened = client.connections_opened
            # A fresh client for the batch so its server-reported
            # timing window holds exactly the one batched call — the
            # gated overhead is wall minus server handling time: pure
            # marshalling + network, independent of engine scheduling
            # (and of client/server CPU contention on small hosts).
            with RemoteSketchServer(server.url, transport=name) as client:
                client.negotiate_transport()
                t0 = time.perf_counter()
                answers = client.estimate_many(list(stream))
                batch_s = time.perf_counter() - t0
                values = [r.estimate for r in answers]
                timings = client.timings()
            server_s = timings["server"]["p50"] * len(stream)
            transports[name] = {
                "negotiated": negotiated,
                "n_singles": len(singles),
                "n_batch": len(stream),
                "single_seconds": single_s,
                "batch_seconds": batch_s,
                "batch_server_seconds": server_s,
                "single_overhead_us_per_request": (
                    (single_s - inproc_single_s) / len(singles) * 1e6
                ),
                "batch_overhead_us_per_request": (
                    (batch_s - server_s) / len(stream) * 1e6
                ),
                "batch_vs_inproc_us_per_request": (
                    (batch_s - inproc_batch_s) / len(stream) * 1e6
                ),
                "connections_opened": opened,
                "max_rel_diff": _max_rel_diff(values, reference),
            }

    for name, t in transports.items():
        text_lines.append(
            f"{name:7s}: singles {t['single_seconds']:7.3f}s "
            f"({t['single_overhead_us_per_request']:8.1f}us/req overhead), "
            f"batch {t['batch_seconds']:7.3f}s "
            f"({t['batch_overhead_us_per_request']:8.1f}us/req overhead), "
            f"dials {t['connections_opened']}, "
            f"max rel diff {t['max_rel_diff']:.2e}"
        )
    text_lines.insert(
        0,
        f"inproc : singles {inproc_single_s:7.3f}s, "
        f"batch {inproc_batch_s:7.3f}s "
        f"({len(singles)} singles, {len(stream)}-request batch)",
    )

    # ------------------------------------------------------------------
    # shared-memory snapshots: ship bytes, mapping, RSS, parity
    # ------------------------------------------------------------------
    print("measuring snapshot shipping (pickle vs shm)...", file=sys.stderr)
    sketch = manager.get_sketch("bench")
    snapshot_blob_bytes = len(
        pickle.dumps(sketch.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)
    )
    # The descriptor's size depends on the payload's layout only, so
    # one published here stands for the one the executor ships.
    probe = SnapshotSegment.publish(sketch)
    descriptor_bytes = len(
        pickle.dumps(probe.descriptor, protocol=pickle.HIGHEST_PROTOCOL)
    )
    probe.unlink()
    shm_results: dict[str, dict] = {}
    for mode, flags in (
        ("pickle", {}),
        ("shm", {"shm_snapshots": True}),
    ):
        sketch.clear_cache()
        mode_config = ServeConfig(
            executor="process", executor_workers=args.workers,
            use_cache=False, max_batch_size=64, **flags,
        )
        with SketchServer(manager, mode_config) as server:
            t0 = time.perf_counter()
            responses = server.serve(list(stream))
            seconds = time.perf_counter() - t0
            values = [r.estimate for r in responses]
            pids = [
                slot["pid"]
                for slot in server.engine.executor.slots()
                if slot["pid"] is not None
            ]
            segments = sorted(live_segment_names())
            mapped = (
                _workers_mapping_segment(pids, segments[0])
                if segments else []
            )
            rss = _worker_rss_kb(pids)
            fallbacks = server.stats.n_executor_fallbacks
        shm_results[mode] = {
            "seconds": seconds,
            "n_workers": len(pids),
            "worker_rss_kb": sorted(rss.values()),
            "segments_live_while_serving": segments,
            "workers_mapping_segment": mapped,
            "shipped_bytes_per_worker": (
                descriptor_bytes if flags else snapshot_blob_bytes
            ),
            "fallbacks": fallbacks,
            "max_rel_diff": _max_rel_diff(values, reference),
            "exact": bool(
                np.array_equal(
                    np.asarray(values, dtype=np.float64),
                    np.asarray(reference, dtype=np.float64),
                )
            ),
        }
    leaked_after_close = sorted(live_segment_names())
    pickle_rss = shm_results["pickle"]["worker_rss_kb"]
    shm_rss = shm_results["shm"]["worker_rss_kb"]
    rss_delta_kb = (
        (sum(shm_rss) / max(len(shm_rss), 1))
        - (sum(pickle_rss) / max(len(pickle_rss), 1))
    )
    text_lines += [
        "",
        f"snapshot ship  : pickle {snapshot_blob_bytes} B/worker vs shm "
        f"{shm_results['shm']['shipped_bytes_per_worker']} B descriptor "
        f"(segment mapped by {sum(shm_results['shm']['workers_mapping_segment'])}"
        f"/{shm_results['shm']['n_workers']} workers)",
        f"worker RSS     : pickle mean "
        f"{sum(pickle_rss) / max(len(pickle_rss), 1):9.0f} kB, shm mean "
        f"{sum(shm_rss) / max(len(shm_rss), 1):9.0f} kB "
        f"(delta {rss_delta_kb:+.0f} kB)",
        f"shm parity     : exact={shm_results['shm']['exact']} "
        f"(max rel diff {shm_results['shm']['max_rel_diff']:.2e}), "
        f"segments after close: {leaked_after_close or 'none'}",
    ]
    text = "\n".join(text_lines)
    print(text)

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    gates = {
        "json_parity": transports["json"]["max_rel_diff"] <= PARITY_RTOL,
        "binary_parity": transports["binary"]["max_rel_diff"] <= PARITY_RTOL,
        "binary_negotiated": transports["binary"]["negotiated"] == "binary",
        # The keep-alive regression gate: sequential clients dial once
        # (or twice, allowing one idle-drop redial) — never per request.
        "json_keepalive": (
            transports["json"]["connections_opened"]["json"]
            <= MAX_CONNECTIONS_PER_CLIENT
        ),
        "binary_keepalive": (
            transports["binary"]["connections_opened"]["binary"]
            <= MAX_CONNECTIONS_PER_CLIENT
        ),
        # Zero per-worker snapshot copies: only the descriptor crosses
        # the boundary, and every worker maps the published segment.
        "shm_descriptor_small": (
            shm_results["shm"]["shipped_bytes_per_worker"]
            < snapshot_blob_bytes / 4
        ),
        "shm_segment_mapped_by_all_workers": (
            len(shm_results["shm"]["workers_mapping_segment"]) > 0
            and all(shm_results["shm"]["workers_mapping_segment"])
        ),
        "shm_exact_parity": shm_results["shm"]["exact"],
        "shm_no_fallbacks": shm_results["shm"]["fallbacks"] == 0,
        "shm_no_leaked_segments": leaked_after_close == [],
    }
    if not args.tiny:
        gates["binary_batch_overhead"] = (
            transports["binary"]["batch_overhead_us_per_request"]
            <= MAX_BINARY_BATCH_OVERHEAD_US
        )
    ok = all(gates.values())

    payload = {
        "inproc": {
            "n_singles": len(singles),
            "n_batch": len(stream),
            "single_seconds": inproc_single_s,
            "batch_seconds": inproc_batch_s,
        },
        "transports": transports,
        "shm": {
            "snapshot_pickle_bytes": snapshot_blob_bytes,
            "modes": shm_results,
            "worker_rss_delta_kb": rss_delta_kb,
            "leaked_segments_after_close": leaked_after_close,
        },
        "config": {
            "mode": "tiny" if args.tiny else "full",
            "scale": args.scale,
            "queries": args.queries,
            "epochs": args.epochs,
            "samples": args.samples,
            "hidden": args.hidden,
            "seed": args.seed,
            "distinct": args.distinct,
            "batch": args.batch,
            "singles": args.singles,
            "workers": args.workers,
            "cpu_count": os.cpu_count(),
            "parity_rtol": PARITY_RTOL,
            "max_binary_batch_overhead_us": MAX_BINARY_BATCH_OVERHEAD_US,
            "max_connections_per_client": MAX_CONNECTIONS_PER_CLIENT,
        },
        "gates": gates,
        "pass": ok,
    }

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "bench_transport.txt"), "w") as f:
        f.write(text.rstrip() + "\n")
    with open(os.path.join(results_dir, "BENCH_transport.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    for gate, passed in gates.items():
        if not passed:
            print(f"FAIL: gate {gate!r} failed", file=sys.stderr)
    if ok:
        print(
            "PASS: binary batched overhead "
            f"{transports['binary']['batch_overhead_us_per_request']:.1f}"
            "us/req (json "
            f"{transports['json']['batch_overhead_us_per_request']:.1f}"
            "us/req), "
            f"{transports['json']['connections_opened']['json']} json dial(s) "
            f"for {len(singles) + 1 + len(stream)} round trips, shm ships "
            f"{shm_results['shm']['shipped_bytes_per_worker']} B vs "
            f"{snapshot_blob_bytes} B pickled, 0 leaked segments",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="synthetic IMDb scale factor")
    parser.add_argument("--queries", type=int, default=3000,
                        help="training queries for the served sketch")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--distinct", type=int, default=24,
                        help="distinct JOB-light queries in the stream")
    parser.add_argument("--batch", type=int, default=512,
                        help="requests in the batched stream")
    parser.add_argument("--singles", type=int, default=96,
                        help="sequential single-request round trips")
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool workers for the shm section")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration for CI (seconds)")
    args = parser.parse_args(argv)
    if args.tiny:
        vars(args).update(TINY_TRANSPORT_ARGS)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
