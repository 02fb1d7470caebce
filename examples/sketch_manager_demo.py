"""The demo backend walkthrough: SHOW SKETCHES, create, monitor, query.

Mirrors Section 3 of the paper programmatically:

* pre-built models are registered and instantly queryable,
* a new sketch is defined and its training monitored stage by stage,
* a second model trains incrementally *while* the pre-built sketch keeps
  answering queries (the demo's third latency mitigation) — and, being
  the same build stepped one epoch at a time, ends up with exactly the
  weights of the synchronously created sketch of the same config,
* sketches are persisted to disk and reloaded.

Run from the repository root::

    python examples/sketch_manager_demo.py           # full (a minute or two)
    python examples/sketch_manager_demo.py --tiny    # smoke run (seconds)
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.core import STAGES, DeepSketch, SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.workload import spec_for_imdb  # noqa: E402

SQL = (
    "SELECT COUNT(*) FROM title t, movie_keyword mk "
    "WHERE mk.movie_id=t.id AND t.production_year>2010;"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--queries", type=int, default=1500)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--hidden", type=int, default=32)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke configuration (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.tiny:
        args.scale, args.queries, args.epochs = 0.05, 300, 2
        args.samples, args.hidden = 50, 16
    config = SketchConfig(
        n_training_queries=args.queries,
        epochs=args.epochs,
        sample_size=args.samples,
        hidden_units=args.hidden,
    )

    db = load_dataset("imdb", scale=args.scale)
    manager = SketchManager(db)

    # -- pre-built (high quality) models, queryable right away ---------
    prebuilt, _ = build_sketch(
        db, spec_for_imdb(), name="prebuilt-joblight", config=config
    )
    manager.register_sketch(prebuilt)
    print("SHOW SKETCHES ->", manager.list_sketches())

    # -- create a new sketch with monitoring --------------------------
    spec_small = spec_for_imdb(tables=("title", "movie_keyword", "movie_info"))
    sketch, report = manager.create_sketch("three-tables", spec_small, config=config)
    monitor = manager.monitor_for("three-tables")
    print("\ncreation stages:", " -> ".join(monitor.stages_seen()))
    for message in monitor.epoch_messages():
        print("  ", message)

    # -- train a third model while querying the first ------------------
    print("\nincremental build (querying 'prebuilt-joblight' between epochs):")
    manager.start_build("background-model", spec_small, config=config)
    while manager.pending_builds():
        pending = manager.step_build("background-model")
        estimate = manager.query("prebuilt-joblight", SQL)
        print(
            f"  epoch {pending.epochs_done}/{config.epochs} done; "
            f"prebuilt sketch answered {estimate:.0f} meanwhile"
        )
    print("SHOW SKETCHES ->", manager.list_sketches())

    # The incremental build is the synchronous build, stepped: same seed
    # and config, same weights; its monitor saw every stage.
    background = manager.get_sketch("background-model")
    want = sketch.model.state_dict()
    same_weights = all(
        np.array_equal(array, want[key])
        for key, array in background.model.state_dict().items()
    )
    stages = manager.monitor_for("background-model").stages_seen()
    print(f"background-model weights == three-tables weights: {same_weights}")
    print("background-model stages:", " -> ".join(stages))

    # -- persistence ----------------------------------------------------
    path = os.path.join(tempfile.gettempdir(), "deep-sketch-demo.bin")
    size = sketch.save(path)
    loaded = DeepSketch.load(path)
    print(f"\nsaved 'three-tables' to {path} ({size / 1024:.0f} KiB)")
    print(f"loaded sketch answers: {loaded.estimate(SQL):.0f}")

    if not same_weights or stages != list(STAGES):
        print("SKETCH MANAGER DEMO FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
