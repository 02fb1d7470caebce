"""Profile one warm ``build_sketch`` round at the benchmark's config.

Re-executes itself under the benchmark's child environment (one BLAS
thread, one malloc arena: ``benchmarks/e2e/common.py: CHILD_ENV``, which
must be set before numpy loads), builds once to warm up, then prints the
next round's cProfile top 25 by cumulative time and its
``BuildReport.stage_seconds``.  cProfile taxes Python calls but not the
time inside numpy, so read proportions there.

Then, without cProfile, it prints the round's stage split: the median
over five more warm builds of the time spent in each step, measured by
wrapping the function that does it with a wall clock:

* ``define``, ``generate``, ``execute`` — the builder's stage methods
  (``execute`` without its bitmap gather);
* ``bitmaps`` — gathering the sample bitmaps from the label masks;
* ``featurize`` — writing the packed feature sets;
* ``pack`` — the packed train/validation split;
* ``epochs`` — the training epochs, validation included.

End-to-end numbers come from ``benchmarks/e2e/run.py --workload
build_sketch``.

Run from anywhere:  python scripts/profile_build.py
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

from common import CHILD_ENV  # noqa: E402 - pure python, safe before the re-exec

if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in CHILD_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **CHILD_ENV})

    from drivers import build_config, make_db
    from repro.core import build_sketch
    from repro.workload import spec_for_imdb

    db, spec = make_db(), spec_for_imdb()
    build_sketch(db, spec, config=build_config(), seed=0)
    profiler = cProfile.Profile()
    _, report = profiler.runcall(build_sketch, db, spec, config=build_config(), seed=0)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    for stage, seconds in report.stage_seconds.items():
        print(f"{stage:>10s} {seconds:7.3f} s")
    print(f"{'total':>10s} {report.total_seconds:7.3f} s")

    from repro.core.batches import TrainingSet
    from repro.core.builder import PendingBuild, SketchBuilder
    from repro.core.featurization import Featurizer
    from repro.db.executor import _CountMemo

    steps = {
        "define": (SketchBuilder, "define"),
        "generate": (SketchBuilder, "generate"),
        "execute": (SketchBuilder, "execute"),
        "bitmaps": (_CountMemo, "sample_bitmaps"),
        "featurize": (Featurizer, "featurize_packed"),
        "pack": (TrainingSet, "split"),
        "epochs": (PendingBuild, "step"),
    }
    spent = dict.fromkeys(steps, 0.0)

    def clocked(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start

        return wrapper

    for name, (owner, attr) in steps.items():
        setattr(owner, attr, clocked(name, getattr(owner, attr)))
    rounds = []
    for _ in range(5):
        spent.update(dict.fromkeys(steps, 0.0))
        start = time.perf_counter()
        build_sketch(db, spec, config=build_config(), seed=0)
        rounds.append({**spent, "round": time.perf_counter() - start})
        rounds[-1]["execute"] -= rounds[-1]["bitmaps"]
    print("\nstage split, median of 5 warm builds (no profiler):")
    for name in (*steps, "round"):
        print(f"{name:>10s} {statistics.median(r[name] for r in rounds) * 1000:7.1f} ms")
