"""Sketch lifecycle, end to end: drift watch, shadow refresh, hot swap.

Demonstrates the background lifecycle subsystem the paper's closing
remark asks for ("more research is needed to automate the training and
utilization of Deep Sketches"):

1. build a small Deep Sketch over the synthetic IMDb, save it to a
   versioned **registry** (checksummed blobs + atomic manifest), and
   serve it through the async engine,
2. mutate the database underneath the sketch (production years shifted
   three decades) so its materialized samples drift,
3. run one **lifecycle pass**: the drift detector trips, a replacement
   is shadow-trained off the serving path, published to the registry as
   v2, and hot-swapped into the live engine with zero dropped requests,
4. **roll back**: re-activate v1 from the registry (checksum-verified)
   and swap it in — the one-command recovery story for a bad refresh,
5. inspect the whole story via ``engine.stats()`` — swaps, last swap,
   per-sketch versions, and lifecycle state (the same block
   ``/v1/healthz`` serves over HTTP).

Run from the repository root::

    python examples/lifecycle_demo.py           # full (a minute or two)
    python examples/lifecycle_demo.py --tiny    # smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

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
from repro.workload import spec_for_imdb  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--refresh-queries", type=int, default=600)
    parser.add_argument("--refresh-epochs", type=int, default=3)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke configuration (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.tiny:
        args.scale, args.queries, args.epochs = 0.06, 300, 2
        args.samples, args.hidden = 50, 16
        args.refresh_queries, args.refresh_epochs = 120, 2

    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    spec = spec_for_imdb(max_joins=2)
    print(
        f"building sketch (scale={args.scale}, {args.queries} training "
        f"queries, {args.epochs} epochs)...",
        file=sys.stderr,
    )
    sketch, _ = build_sketch(
        db,
        spec,
        name="imdb",
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=0,
        ),
    )
    manager = SketchManager(db=None)
    manager.register_sketch(sketch)

    sql = (
        "SELECT COUNT(*) FROM title t, movie_keyword mk "
        "WHERE mk.movie_id=t.id AND t.production_year>2005;"
    )

    with tempfile.TemporaryDirectory() as registry_dir:
        registry = SketchRegistry(registry_dir)
        v1 = registry.save(sketch, note="initial build")
        print(f"registry: saved v{v1} (active)", file=sys.stderr)

        with SketchServer(manager, ServeConfig()).start() as server:
            lifecycle = LifecycleManager(
                server,
                db,
                {"imdb": spec},
                registry=registry,
                config=LifecycleConfig(
                    check_interval_s=5.0,
                    refresh_queries=args.refresh_queries,
                    refresh_epochs=args.refresh_epochs,
                ),
                seed=0,
            )

            before = server.estimate(sql).estimate
            print(f"serving v1: estimate({sql[:40]}...) = {before:.0f}")

            # -- drift: the world changes under the sketch --------------
            print(
                "mutating database (production years shifted 3 decades) "
                "and running one lifecycle pass...",
                file=sys.stderr,
            )
            title = db.table("title")
            title.columns["production_year"].values[:] = np.clip(
                title.columns["production_year"].values - 30, 1880, 2019
            )
            outcome = lifecycle.run_once()
            state = lifecycle.state()["sketches"]["imdb"]
            print(
                f"lifecycle pass: drift {state['last_drift']:.3f}, "
                f"outcome {outcome['imdb']!r}, "
                f"{state['refreshes']} refresh(es)"
            )
            after = server.estimate(sql).estimate
            print(f"serving v2: same query now estimates {after:.0f}")
            print(
                "registry:",
                json.dumps(registry.describe()["imdb"]),
            )

            # -- rollback: one command back to the known-good version ---
            restored = lifecycle.rollback("imdb")
            rolled = server.estimate(sql).estimate
            print(
                f"rolled back to v{restored}: same query estimates "
                f"{rolled:.0f} again"
            )

            stats = server.engine.stats()
            print("engine lifecycle telemetry:")
            print(
                json.dumps(
                    {
                        "swaps": stats["swaps"],
                        "last_swap": stats["last_swap"],
                        "versions": stats["versions"],
                        "lifecycle": stats["lifecycle"],
                    },
                    indent=2,
                )
            )

    ok = (
        outcome.get("imdb") == "idle"
        and restored == 1
        and stats["swaps"] == 2
        and stats["versions"]["imdb"]["registry_version"] == 1
    )
    if not ok:
        print("LIFECYCLE DEMO FAILED", file=sys.stderr)
        return 1
    print(
        "lifecycle demo passed: drift -> shadow refresh -> hot swap -> "
        "rollback, previous version never dropped a request",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
