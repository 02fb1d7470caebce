"""Shared fixtures for the benchmark harness.

The expensive artifacts — the full-scale synthetic IMDb, a Table-1
quality Deep Sketch, the JOB-light workload, and the baseline
estimators — are built once per benchmark session and shared by every
harness.  Each harness also appends its headline numbers to
``benchmarks/results/`` so EXPERIMENTS.md can be assembled from one run.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, as the end-to-end benchmark pins for its children
# (``benchmarks/e2e/common.py::CHILD_ENV``): with OpenBLAS's default of
# one thread per core, a cold process's first training epochs stall
# now and then on a two-core machine, which the Figure 1a timing gate
# reads as a failure.  BLAS reads these once, when numpy loads.
if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before benchmarks/conftest.py could pin BLAS "
        "to one thread"
    )
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.baselines import (  # noqa: E402
    HyperEstimator,
    PostgresEstimator,
    SamplingEstimator,
    TruthEstimator,
)
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.db import execute_counts  # noqa: E402
from repro.workload import JobLightConfig, generate_job_light, spec_for_imdb  # noqa: E402

#: Paper-faithful parameters, scaled to the synthetic database: the demo
#: recommends ~10k queries for a small number of tables and notes 25
#: epochs usually suffice; we use more queries because labels are cheap
#: on the in-memory engine.
TABLE1_CONFIG = SketchConfig(
    n_training_queries=20_000,
    epochs=20,
    sample_size=1000,
    hidden_units=64,
    seed=0,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> None:
    """Persist a harness' headline output for EXPERIMENTS.md."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text.rstrip() + "\n")


@pytest.fixture(scope="session")
def imdb_full():
    """The full-scale synthetic IMDb (~20k titles, ~300k rows)."""
    return generate_imdb(ImdbConfig(scale=1.0, seed=7))


@pytest.fixture(scope="session")
def table1_sketch(imdb_full):
    """The Deep Sketch used by the Table 1 / Figure 1b / Figure 2 benches."""
    sketch, report = build_sketch(
        imdb_full, spec_for_imdb(), name="imdb-joblight", config=TABLE1_CONFIG
    )
    return sketch, report


@pytest.fixture(scope="session")
def joblight_workload(imdb_full):
    """70 JOB-light-style queries with their true cardinalities."""
    queries = generate_job_light(imdb_full, JobLightConfig(n_queries=70, seed=42))
    truths = np.array([float(max(c, 1)) for c in execute_counts(imdb_full, queries)])
    return queries, truths


@pytest.fixture(scope="session")
def baseline_estimators(imdb_full):
    """The paper's comparison systems plus the pure-sampling ablation."""
    return {
        "HyPer": HyperEstimator(imdb_full, sample_size=1000, seed=1),
        "PostgreSQL": PostgresEstimator(imdb_full),
        "Sampling": SamplingEstimator(imdb_full, sample_size=1000, seed=1),
    }


@pytest.fixture(scope="session")
def truth_oracle(imdb_full):
    return TruthEstimator(imdb_full)
