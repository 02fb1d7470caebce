"""Profile one warm ``build_sketch`` round at the benchmark's config.

Re-executes itself under the benchmark's child environment (one BLAS
thread, one malloc arena: ``benchmarks/e2e/common.py: CHILD_ENV``, which
must be set before numpy loads), builds once to warm up, then prints the
next round's cProfile top 25 by cumulative time and its
``BuildReport.stage_seconds``.  cProfile taxes Python calls but not the
time inside numpy, so read proportions here and measure with
``benchmarks/e2e/run.py --workload build_sketch``.

Run from anywhere:  python scripts/profile_build.py
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
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
