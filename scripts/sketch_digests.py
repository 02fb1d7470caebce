"""Pin the bytes of what the four build paths train.

Builds sketches at the benchmark's config (``drivers.build_config()``,
``drivers.make_db()``, ``spec_for_imdb()``) under the benchmark's child
environment (one BLAS thread, one malloc arena: ``CHILD_ENV`` in
``benchmarks/e2e/common.py``, which must be set before numpy loads)
through every path that trains one:

* ``build_sketch`` with seeds 0, 1 and 2;
* ``SketchManager.create_sketch`` (seed 0);
* the stepped incremental build, ``start_build`` + ``step_build``;
* ``refresh_sketch`` of the seed-0 sketch (1000 queries, 2 epochs).

Each row is a sha256 prefix of the sketch's float64 estimates for the
benchmark's fixed 70-query quality set; build rows also carry the
report's ``n_zero_cardinality_dropped`` and ``max_training_cardinality``.
A change that must not move numerics leaves every row as pinned in
``PINNED``; one that does says which row moved and why, and re-pins.

    python scripts/sketch_digests.py           # print the rows
    python scripts/sketch_digests.py --check   # exit 1 if a row moved
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

from common import CHILD_ENV  # noqa: E402 - pure python, safe before the re-exec

#: name -> (estimate digest, zero-cardinality drops, max training label).
#:
#: The digests moved once when training left the autograd graph for
#: ``repro.nn.training.TrainingSession``: each set MLP now runs as a 2-D
#: GEMM over its packed valid rows instead of a padded 3-D ``np.matmul``,
#: and on the 1006-wide table set the two kernels round a few ULPs apart.
#: Batches, initialization, loss and Adam arithmetic are unchanged: the
#: same builds trained through the autograd oracle (``tests/nn/oracle/``)
#: still give the earlier digests (seeds 0-2: fb6c67b068920ea5,
#: 15167061b93e31e4, 299ad0a928a9b4e3).  The label columns did not move.
PINNED = {
    "build_sketch/seed0": ("6723364918168211", 214, 103561.0),
    "build_sketch/seed1": ("e86bd214e9e81394", 232, 103561.0),
    "build_sketch/seed2": ("4c245a9ec189f3cd", 232, 95097.0),
    "create_sketch": ("6723364918168211", 214, 103561.0),
    "incremental": ("6723364918168211", 214, 103561.0),
    "refresh_sketch": ("320a5263a277ec07", None, None),
}


def estimate_digest(sketch, queries) -> str:
    import numpy as np

    estimates = np.asarray(sketch.estimate_many(queries, use_cache=False), dtype=np.float64)
    return hashlib.sha256(estimates.tobytes()).hexdigest()[:16]


def rows() -> dict[str, tuple]:
    from drivers import build_config, make_db, quality_set
    from repro.core import build_sketch
    from repro.core.maintenance import refresh_sketch
    from repro.core import SketchManager
    from repro.workload import spec_for_imdb

    db, spec = make_db(), spec_for_imdb()
    quality, _ = quality_set(db)
    out: dict[str, tuple] = {}

    def record(name, sketch, report=None):
        out[name] = (
            estimate_digest(sketch, quality),
            None if report is None else report.n_zero_cardinality_dropped,
            None if report is None else report.max_training_cardinality,
        )
        print(f"{name:>20s}  {out[name][0]}  dropped={out[name][1]}  max={out[name][2]}")

    built = []
    for seed in range(3):
        sketch, report = build_sketch(db, spec, config=build_config(), seed=seed)
        record(f"build_sketch/seed{seed}", sketch, report)
        built.append(sketch)

    manager = SketchManager(db)
    sketch, report = manager.create_sketch("created", spec, config=build_config(), seed=0)
    record("create_sketch", sketch, report)

    pending = manager.start_build("stepped", spec, config=build_config(), seed=0)
    while not pending.finished:
        manager.step_build("stepped")
    record("incremental", pending.sketch, pending.report)

    refreshed = refresh_sketch(built[0], db, spec, n_queries=1000, epochs=2, seed=0)
    record("refresh_sketch", refreshed)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 unless every row is as pinned"
    )
    args = parser.parse_args()
    got = rows()
    if not args.check:
        return 0
    moved = [name for name, row in PINNED.items() if got.get(name) != row]
    for name in moved:
        print(f"MOVED {name}: pinned {PINNED[name]}, got {got.get(name)}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in CHILD_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **CHILD_ENV})
    sys.exit(main())
