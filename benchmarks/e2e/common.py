"""Constants and pure-python helpers shared by the benchmark's parent and children.

Nothing here imports numpy or ``repro``: the parent (``run.py``) must stay
a thin spawner, so that no measured process inherits memory or imports
from it.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("build_sketch", "stream_cold", "stream_hot", "adhoc_json", "plan_remote")
#: Remote workloads and the transport each must negotiate.
REMOTE = {"stream_hot": "binary", "adhoc_json": "json", "plan_remote": "binary"}

#: Per-layer metrics a workload has no service or process to measure on;
#: there they read 0.  Any other listed metric that a run does not
#: produce fails the run (``run.py: listed_metrics``).
NOT_APPLICABLE = {
    "build_sketch": ("serve.engine.", "serve.client.", "serve.http."),
    "stream_cold": ("serve.client.", "serve.http."),
}

BATCH = 256
#: The sketch's result cache (``DEFAULT_ESTIMATE_CACHE_SIZE``).
RESULT_LRU = 8192
#: Distinct training-shaped queries cycled in order.  More than the
#: result LRU holds, so a query has been evicted by the time it recurs:
#: cycling never hits, however long the window or fast the machine.
POOL_SIZE = 33 * BATCH
#: ``stream_hot`` gets HOT_POOL more, the Zipf(1.1) hot set.  Warm-up
#: fills the LRU (the cycled queries it has room for, then the hot set),
#: so the window starts with a full cache and evicts from its first miss.
#: Each batch is then Zipf draws from the hot set, which hit, plus
#: FRESH_PER_BATCH of the cycled queries, which miss: a hit share of ~93%
#: that does not climb as the window goes on.
HOT_POOL = 4096
FRESH_PER_BATCH = 18
HOT_HIT_BAND = (0.85, 0.97)
ZIPF_S = 1.1
#: ``plan_remote``: 2000 JOB-light-shaped queries hold ~11k distinct
#: sub-plans, more than the result LRU, so cycling them keeps a steady
#: mix of cached and computed sub-plans.
PLAN_POOL = 2000
PLAN_CHECK = 64
ADHOC_CLIENTS = 2
QUALITY_QUERIES = 70
#: ``quality.qerror_p50`` when the benchmark was defined; the gate allows
#: 1.5x.  The fixture's is a constant (fixed DB, build and query seeds);
#: a ``build_sketch`` round trains from ``--seed``, so its entry is the
#: worst of seeds 0-11 (range 4.86-6.69).
QERROR_P50_AT_DEFINITION = {"fixture": 5.168, "build": 6.686}
QERROR_CEILING_FACTOR = 1.5
PARITY_TOL = 1e-9
#: ``trace.coverage`` on ``stream_cold`` must land in this band: the
#: stage spans explain a served miss but for the engine's own ~12%.
COVERAGE_BAND = (0.80, 1.05)

IMDB_SCALE = 0.25
IMDB_SEED = 7
#: One ``build_sketch`` round: repo defaults but for size; at scale 0.25
#: it takes ~1.3 s, so an 8 s window holds six.
BUILD_QUERIES = 1000
BUILD_EPOCHS = 4
#: The fixture is the same build at batch size 32: training then peaks at
#: ~195 MB instead of ~330 MB, and on this VM every fresh page costs
#: 25-100 us, which made the default a 2-5 s tax on every run's prepare.
#: Serving cost depends on sample size and hidden units, not on this.
FIXTURE_BATCH_SIZE = 32
FIXTURE_SEED = 0

#: Cold starts per run; with the measure child's own bring-up that makes
#: four set-up samples, and ``setup_s`` is their median.  Each costs
#: 1.3-2.5 s in every one of the driver's 114 runs, which share 3420 s.
COLD_STARTS = 3
#: The timed window is cut into this many slices (0.225 s at the default
#: ``run_seconds``); see ``steady``.
SLICES = 40
LEDGER_ROUNDS = 12

#: Set in every child before numpy loads.  One BLAS thread: on a 2-core
#: box the default pool made identical runs range 3.2k-4.3k qps.  One
#: malloc arena that never mmaps or trims: this VM hands freed pages back
#: to the host and re-faulting them costs ~25-100 us a page, which moved
#: one build round between 2.0 and 8.4 s; keeping freed memory in the
#: process (in every thread: worker threads otherwise get arenas that do
#: trim) removes it.  A fixed hash seed makes set order, and so the
#: exact-repeat counters, the same from run to run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def child_argv(role: str, *args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), role, *map(str, args)]


def median(values) -> float:
    return float(statistics.median(values))


def steady(values, better: str) -> float:
    """One value for a window from its per-slice values: the decile on
    the better side (the 90th percentile of a rate, the 10th of a time).

    What disturbs a slice on this shared 2-core VM -- a neighbour's
    burst, a page fault, the other process of a remote workload being
    scheduled late -- only ever adds time, and the share of disturbed
    slices changes from run to run: over ten runs of one commit in a
    quiet hour the median call time had a spread of 13.9% and its lower
    decile 5.5% (8.7% in a loud hour).  A slower program makes every
    slice slower, so the decile moves with it; a stall that comes back
    every few seconds shows in ``client.latency_tail_ms`` instead.
    """
    if len(values) < 2:
        return float(values[0])
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return float(deciles[-1] if better == "higher" else deciles[0])


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than twenty samples the
    median is the best that can be said.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, median(ordered)
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def spread(values) -> float:
    """Interquartile range as a share of the median (the contract's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
