"""Profile one warm ``build_sketch`` round at the benchmark's config.

Re-executes itself under the benchmark's child environment (one BLAS
thread, one malloc arena: ``benchmarks/e2e/common.py: CHILD_ENV``, which
must be set before numpy loads), builds once to warm up, then prints the
next round's cProfile top 25 by cumulative time and its
``BuildReport.stage_seconds``.  cProfile taxes Python calls but not the
time inside numpy, so read proportions there.

Then, without cProfile, it prints the round's stage split, measured by
wrapping the function that does each step: the median over five more
warm builds of the wall time spent in it, and beside it the step's
``tracemalloc`` peak in one more build — the most traced memory the
step held above what was allocated when it began (a step's peak
includes the steps nested in it; ``round`` is the whole build's):

* ``define``, ``generate``, ``execute`` — the builder's stage methods
  (``execute``'s time without its bitmap gather);
* ``bitmaps`` — gathering the sample bitmaps from the label masks;
* ``featurize`` — writing the packed feature sets;
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
import tracemalloc
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

    from repro.core.builder import PendingBuild, SketchBuilder
    from repro.core.featurization import Featurizer
    from repro.db.executor import _CountMemo

    steps = {
        "define": (SketchBuilder, "define"),
        "generate": (SketchBuilder, "generate"),
        "execute": (SketchBuilder, "execute"),
        "bitmaps": (_CountMemo, "sample_bitmaps"),
        "featurize": (Featurizer, "featurize_packed"),
        "epochs": (PendingBuild, "step"),
    }
    spent = dict.fromkeys(steps, 0.0)
    peaks = dict.fromkeys(steps, 0)
    #: Per open step while tracing: [traced bytes at entry, the highest
    #: traced total seen before a nested step reset the peak].
    open_steps: list[list[int]] = []

    def enter() -> None:
        current, peak = tracemalloc.get_traced_memory()
        if open_steps:
            open_steps[-1][1] = max(open_steps[-1][1], peak)
        tracemalloc.reset_peak()
        open_steps.append([current, current])

    def leave() -> int:
        """The closing step's peak above its entry, in bytes."""
        base, seen = open_steps.pop()
        top = max(seen, tracemalloc.get_traced_memory()[1])
        if open_steps:
            open_steps[-1][1] = max(open_steps[-1][1], top)
        return top - base

    def clocked(name, fn):
        def wrapper(*args, **kwargs):
            tracing = tracemalloc.is_tracing()
            if tracing:
                enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
                if tracing:
                    peaks[name] = max(peaks[name], leave())

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
    tracemalloc.start()
    enter()
    build_sketch(db, spec, config=build_config(), seed=0)
    peaks["round"] = leave()
    tracemalloc.stop()
    print("\nstage split: median time of 5 warm builds (no profiler), traced peak of one more:")
    for name in (*steps, "round"):
        ms = statistics.median(r[name] for r in rounds) * 1000
        print(f"{name:>10s} {ms:7.1f} ms {peaks[name] / 2**20:7.1f} MB")
