"""Lifecycle: drift detection -> shadow refresh -> zero-drop hot swap.

The paper closes by calling for automation of "the training and
utilization of Deep Sketches in query optimizers"; the lifecycle
subsystem (:mod:`repro.serve.lifecycle`) is that automation.  This
harness measures and gates its serving-side contract end to end:

* **drift -> shadow -> swap** — a sketch is trained and served, the
  database is mutated underneath it (production years shifted three
  decades), and one :meth:`LifecycleManager.run_once` pass must detect
  the drift, shadow-refresh a replacement off the serving path, publish
  it to the versioned :class:`~repro.serve.registry.SketchRegistry`,
  and hot-swap it in;
* **zero-drop swaps under live load** — a
  :class:`~repro.workload.traffic.TrafficShaper` replays skewed/bursty
  open-loop traffic at the engine while a registry rollback and a
  re-activation swap fire mid-stream.  The audit: zero hung futures,
  failures only as structured codes, and **no response answered by a
  retired snapshot version after its swap completed** — every response
  carries the serving sketch's ``token``, and each swap's barrier
  guarantees the old token never resolves after ``swap_sketch``
  returns;
* **swap latency** — the barrier wait of every swap fired under load is
  recorded and gated (a swap drains in-flight rounds, not the queue, so
  it must complete in well under a second on the tiny configuration);
* **rollback** — ``registry rollback`` + hot swap must leave the engine
  serving the original registry version, verified via
  ``describe_versions()``.

Every run writes machine-readable results to
``benchmarks/results/BENCH_lifecycle.json`` (sections + config + gates
+ pass) plus the human-readable ``bench_lifecycle.txt``.

With ``--shm`` the served engine runs the zero-copy process path
(``executor="process"`` with ``shm_snapshots``):
the same drift/swap/rollback audit must hold when snapshots live in
shared-memory segments, and an additional gate asserts the segment
registry (and ``/dev/shm``) drained to empty after the rollback — a hot
swap under load must retire segments, never leak them.

Run from the repository root::

    python benchmarks/bench_lifecycle.py          # full (minutes)
    python benchmarks/bench_lifecycle.py --tiny   # CI smoke run (seconds)
    python benchmarks/bench_lifecycle.py --tiny --shm  # zero-copy engine
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.serve import (  # noqa: E402
    LifecycleConfig,
    LifecycleManager,
    ServeConfig,
    SketchRegistry,
    SketchServer,
)
from repro.workload import (  # noqa: E402
    SuiteConfig,
    TrafficConfig,
    TrafficShaper,
    generate_template_suite,
    spec_for_imdb_templates,
)

#: The ``--tiny`` smoke configuration: small enough for CI seconds,
#: large enough that the replay spans the swaps fired under load.
TINY_LIFECYCLE_ARGS = {
    "scale": 0.06,
    "queries": 300,
    "epochs": 2,
    "samples": 50,
    "hidden": 16,
    "refresh_queries": 120,
    "refresh_epochs": 2,
    "requests": 360,
    "rate": 400.0,
}

#: Budget for one hot swap's barrier wait (seconds).  The barrier
#: drains only the rounds in flight at dict-replace time — micro-batch
#: work, not queue depth — so even the full configuration stays far
#: below this.
SWAP_LATENCY_BUDGET_S = 2.0


def apply_tiny_args(args) -> None:
    """Overwrite an argparse namespace with the tiny smoke configuration."""
    for key, value in TINY_LIFECYCLE_ARGS.items():
        setattr(args, key, value)


def _shift_years(db) -> None:
    """Mutate the database in place: shift production years 3 decades."""
    title = db.table("title")
    values = title.columns["production_year"].values
    values[:] = np.clip(values - 30, 1880, 2019)


def run(args) -> int:
    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    # One spec drives the sketch, the refresh, and the replayed suite,
    # so every replayed query routes to the managed sketch (and the
    # string-valued dimension tables exercise categorical drift too).
    spec = spec_for_imdb_templates(max_joins=2)

    print(
        f"building sketch (scale={args.scale}, {args.queries} queries, "
        f"{args.epochs} epochs)...",
        file=sys.stderr,
    )
    sketch, _ = build_sketch(
        db,
        spec,
        name="lifecycle-bench",
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=args.seed,
        ),
    )

    suite = generate_template_suite(
        db,
        spec,
        SuiteConfig(n_templates=5, queries_per_template=16, max_joins=2),
        seed=args.seed,
    )

    manager = SketchManager(db=None)
    manager.register_sketch(sketch)
    text_lines: list[str] = []

    with tempfile.TemporaryDirectory() as registry_dir:
        registry = SketchRegistry(registry_dir)
        registry.save(sketch, note="initial build")

        if args.shm:
            serve_config = ServeConfig(
                max_batch_size=64,
                executor="process",
                executor_workers=2,
                shm_snapshots=True,
            )
        else:
            serve_config = ServeConfig(max_batch_size=64)
        server = SketchServer(manager, serve_config).start()
        engine = server.engine
        lifecycle = LifecycleManager(
            server,
            db,
            {"lifecycle-bench": spec},
            registry=registry,
            config=LifecycleConfig(
                check_interval_s=0.1,
                refresh_queries=args.refresh_queries,
                refresh_epochs=args.refresh_epochs,
            ),
            seed=args.seed,
        )

        # Record every swap's barrier latency and the retired token.
        swap_events: list[dict] = []
        original_swap = engine.swap_sketch

        def timed_swap(name, replacement, timeout=30.0):
            t0 = time.perf_counter()
            old = original_swap(name, replacement, timeout=timeout)
            done = time.perf_counter()
            swap_events.append(
                {
                    "old_token": old.snapshot_token,
                    "new_token": replacement.snapshot_token,
                    "registry_version": replacement.metadata.get(
                        "registry_version"
                    ),
                    "latency_s": done - t0,
                    "done_at": done,
                }
            )
            return old

        engine.swap_sketch = timed_swap

        try:
            # -- drift -> shadow refresh -> swap (pass 1, no load) -----
            print(
                "mutating database and running one lifecycle pass "
                "(drift -> shadow refresh -> swap)...",
                file=sys.stderr,
            )
            _shift_years(db)
            t0 = time.perf_counter()
            outcome = lifecycle.run_once()
            pass_seconds = time.perf_counter() - t0
            lc_state = lifecycle.state()["sketches"]["lifecycle-bench"]
            drift_detected = (
                lc_state["last_drift"] is not None
                and lc_state["refreshes"] == 1
            )
            refreshed_ok = outcome.get("lifecycle-bench") == "idle"
            text_lines += [
                f"drift -> swap     : pass took {pass_seconds:7.2f}s, "
                f"drift {lc_state['last_drift'] if lc_state['last_drift'] is None else round(lc_state['last_drift'], 3)}, "
                f"outcome {outcome['lifecycle-bench']!r}, "
                f"{lc_state['refreshes']} refresh(es)",
                f"registry          : versions "
                f"{sorted(registry.versions('lifecycle-bench'))}, active "
                f"v{registry.active_version('lifecycle-bench')}",
            ]

            # -- swaps + rollback under live replay --------------------
            print(
                f"replaying {args.requests} open-loop requests while a "
                "rollback and a re-activation swap fire...",
                file=sys.stderr,
            )
            responses: list[tuple] = []
            responses_lock = threading.Lock()

            def on_response(response, resolved_at):
                with responses_lock:
                    responses.append(
                        (response.ok, response.code, response.token, resolved_at)
                    )

            shaper = TrafficShaper(
                suite,
                TrafficConfig(
                    n_requests=args.requests,
                    rate_qps=args.rate,
                    burst_on_s=0.05,
                    burst_off_s=0.05,
                ),
                seed=args.seed + 1,
            )
            replay_box: dict = {}

            def replay_body():
                replay_box["result"] = shaper.replay(
                    server, on_response=on_response
                )

            replay_thread = threading.Thread(target=replay_body)
            replay_thread.start()
            time.sleep(0.2)
            load_live_at_rollback = replay_thread.is_alive()
            rolled_to = lifecycle.rollback("lifecycle-bench")
            time.sleep(0.2)
            # Re-activate the refreshed version (a fresh load gives a
            # fresh process-local token, so this retires the rollback's
            # token just like a real deployment would).
            registry.activate("lifecycle-bench", 2)
            engine.swap_sketch(
                "lifecycle-bench", registry.load("lifecycle-bench", 2)
            )
            load_live_at_swap = replay_thread.is_alive()
            replay_thread.join()
            replay = replay_box["result"]

            versions = engine.describe_versions()["lifecycle-bench"]
            stats = engine.stats()
        finally:
            server.close()

        # -- shm lifecycle: the swaps and the close must leak nothing --
        from repro.serve import live_segment_names
        from repro.serve.shm import SEGMENT_PREFIX

        leaked_segments = sorted(live_segment_names())
        if os.path.isdir("/dev/shm"):
            mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
            leaked_segments += sorted(
                p for p in os.listdir("/dev/shm") if p.startswith(mine)
            )

        # -- token accounting: no retired version after its swap -------
        # Each swap's barrier drains every round holding the old sketch
        # before swap_sketch returns, so an ok response carrying a
        # retired token must have resolved before that swap's done_at.
        n_late_retired = 0
        for ok, _code, token, resolved_at in responses:
            if not ok or token is None:
                continue
            for event in swap_events:
                if token == event["old_token"] and resolved_at > event["done_at"]:
                    n_late_retired += 1
        served_tokens = sorted(
            {t for ok, _c, t, _at in responses if ok and t is not None}
        )
        swap_latencies = [e["latency_s"] for e in swap_events]

        text_lines += [
            "",
            f"replay            : {replay.n_ok}/{replay.n_requests} served, "
            f"{replay.n_failed} structured failures, "
            f"{replay.n_unresolved} hung, "
            f"{replay.n_unstructured} unstructured "
            f"({replay.achieved_qps:7.0f} q/s)",
            f"swaps under load  : rollback to v{rolled_to} + re-activate v2 "
            f"({len(swap_events)} swaps total; load live: "
            f"{load_live_at_rollback}/{load_live_at_swap})",
            f"swap latency      : max {max(swap_latencies) * 1000:7.2f}ms "
            f"over {len(swap_latencies)} swap(s) "
            f"(budget {SWAP_LATENCY_BUDGET_S * 1000:.0f}ms)",
            f"token audit       : {len(served_tokens)} distinct snapshot "
            f"versions answered; {n_late_retired} response(s) from a "
            f"retired version after its swap completed",
            f"final version     : registry v{versions['registry_version']} "
            f"(rollbacks recorded: {stats['lifecycle']['rollbacks']})",
        ]
        text = "\n".join(text_lines)
        print(text)

        # ------------------------------------------------------------------
        # gates
        # ------------------------------------------------------------------
        gates = {
            # One pass turned mutated data into a refreshed, swapped-in
            # sketch (shadow training off the serving path).
            "drift_detected": drift_detected,
            "shadow_refresh_swapped": refreshed_ok,
            "registry_has_both_versions": sorted(
                registry.versions("lifecycle-bench")
            ) == [1, 2],
            # The zero-drop hot-swap contract under concurrent load.
            "zero_hung_futures": replay.zero_hung,
            "structured_codes_only": replay.structured_only,
            "accounting": replay.n_ok + replay.n_failed == replay.n_requests,
            "served_any": replay.n_ok > 0,
            "no_retired_version_answers": n_late_retired == 0,
            "swap_latency_bounded": (
                max(swap_latencies) <= SWAP_LATENCY_BUDGET_S
            ),
            "swaps_fired_under_load": load_live_at_rollback or load_live_at_swap,
            # Rollback restored the original registry version end to end
            # (and the follow-up swap re-activated the refresh).
            "rollback_restored_v1": rolled_to == 1,
            "final_version_consistent": versions["registry_version"] == 2,
            "rollback_recorded": stats["lifecycle"]["rollbacks"] == 1,
            # Shared-memory segments (published at all only with --shm)
            # must all be unlinked once the swaps and the close settle.
            "no_leaked_segments": leaked_segments == [],
        }
        ok = all(gates.values())

        payload = {
            "lifecycle_pass": {
                "seconds": pass_seconds,
                "drift": lc_state["last_drift"],
                "outcome": outcome,
                "state": lc_state,
            },
            "replay": replay.audit(),
            "swaps": [
                {k: v for k, v in event.items() if k != "done_at"}
                for event in swap_events
            ],
            "swap_latency_budget_s": SWAP_LATENCY_BUDGET_S,
            "token_audit": {
                "distinct_versions_served": served_tokens,
                "late_retired_answers": n_late_retired,
            },
            "registry": registry.describe(),
            "final_versions": versions,
            "leaked_segments": leaked_segments,
            "config": {
                "mode": "tiny" if args.tiny else "full",
                "shm": bool(args.shm),
                "scale": args.scale,
                "queries": args.queries,
                "epochs": args.epochs,
                "samples": args.samples,
                "hidden": args.hidden,
                "refresh_queries": args.refresh_queries,
                "refresh_epochs": args.refresh_epochs,
                "requests": args.requests,
                "rate_qps": args.rate,
                "seed": args.seed,
            },
            "gates": gates,
            "pass": ok,
        }

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "bench_lifecycle.txt"), "w") as f:
        f.write(text.rstrip() + "\n")
    with open(os.path.join(results_dir, "BENCH_lifecycle.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    for gate, passed in gates.items():
        if not passed:
            print(f"FAIL: gate {gate!r} failed", file=sys.stderr)
    if ok:
        print(
            f"PASS: drift {lc_state['last_drift']:.3f} -> shadow refresh -> "
            f"swap; {len(swap_events)} swaps (max barrier "
            f"{max(swap_latencies) * 1000:.1f}ms), "
            f"{replay.n_ok}/{replay.n_requests} served under load, 0 hung, "
            f"0 retired-version answers, rollback restored v1",
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
    parser.add_argument("--refresh-queries", dest="refresh_queries",
                        type=int, default=800,
                        help="fine-tuning queries per shadow refresh")
    parser.add_argument("--refresh-epochs", dest="refresh_epochs",
                        type=int, default=4)
    parser.add_argument("--requests", type=int, default=600,
                        help="open-loop replay requests under the swaps")
    parser.add_argument("--rate", type=float, default=400.0,
                        help="arrival rate inside ON windows (q/s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration for CI (seconds)")
    parser.add_argument("--shm", action="store_true",
                        help="serve through the zero-copy process engine "
                        "(process executor + shm_snapshots) and gate on no "
                        "leaked segments")
    args = parser.parse_args(argv)
    if args.tiny:
        apply_tiny_args(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
