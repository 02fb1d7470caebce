"""0-tuple situations — the claim experiment from Section 2.

"One advantage of our approach over pure sampling-based cardinality
estimators is that it addresses 0-tuple situations, which is when no
sampled tuples qualify.  In such situations, sampling-based approaches
usually fall back to an 'educated' guess — causing large estimation
errors.  Our approach, in contrast, handles such situations reasonably
well."

The harness collects generated queries whose predicates match *no*
tuple in the sketch's samples but whose true cardinality is positive,
then compares q-errors: the Deep Sketch must beat the pure-sampling
estimator (same samples, no model) decisively on this slice.
"""

from __future__ import annotations

import numpy as np

from repro.db import execute_counts
from repro.metrics import format_table, qerrors, summarize_qerrors
from repro.sampling import is_zero_tuple
from repro.workload import TrainingQueryGenerator, WorkloadSpec, spec_for_imdb

from conftest import write_result

#: Generator draws before the search gives up.
MAX_DRAWS = 30_000


def _collect_zero_tuple_queries(db, samples, n_wanted=40, seed=909):
    """Generated queries that are 0-tuple w.r.t. ``samples`` yet non-empty."""
    base = spec_for_imdb()
    spec = WorkloadSpec(
        tables=base.tables,
        aliases=base.aliases,
        predicate_columns=base.predicate_columns,
        max_joins=base.max_joins,
        literal_distribution="distinct",  # tail literals -> 0-tuple regime
    )
    generator = TrainingQueryGenerator(db, spec, seed=seed)
    queries, truths = [], []
    # 0-tuple candidates are counted in one batch once there are enough
    # of them to fill what is still wanted (or the draws run out); the
    # first ``n_wanted`` non-empty ones are kept, in draw order.
    candidates = []
    attempts = 0
    while len(queries) < n_wanted and attempts < MAX_DRAWS:
        attempts += 1
        query = generator.draw()
        if query.predicates and is_zero_tuple(samples, query):
            candidates.append(query)
        if len(candidates) == n_wanted - len(queries) or attempts == MAX_DRAWS:
            for query, truth in zip(candidates, execute_counts(db, candidates)):
                if truth > 0 and len(queries) < n_wanted:
                    queries.append(query)
                    truths.append(float(truth))
            candidates = []
    return queries, np.array(truths)


def test_zero_tuple_qerrors(
    benchmark, imdb_full, table1_sketch, baseline_estimators
):
    sketch, _ = table1_sketch

    def run():
        queries, truths = _collect_zero_tuple_queries(imdb_full, sketch.samples)
        estimates = {
            "Deep Sketch": sketch.estimate_many(queries),
            "Sampling": baseline_estimators["Sampling"].estimate_many(queries),
            "HyPer": baseline_estimators["HyPer"].estimate_many(queries),
            "PostgreSQL": baseline_estimators["PostgreSQL"].estimate_many(queries),
        }
        return queries, truths, estimates

    queries, truths, estimates = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(queries) >= 15, "not enough 0-tuple queries found"

    rows = {
        name: summarize_qerrors(qerrors(est, truths))
        for name, est in estimates.items()
    }
    table = format_table(rows, f"0-tuple situations (n={len(queries)})")
    print("\n" + table)
    write_result("zero_tuple", table)
    for name, summary in rows.items():
        benchmark.extra_info[name] = summary.as_dict()

    # The paper's claim: the learned model degrades gracefully where
    # pure sampling has lost all signal.
    assert rows["Deep Sketch"].median <= rows["Sampling"].median
    assert rows["Deep Sketch"].mean <= rows["Sampling"].mean
    assert rows["Deep Sketch"].p95 <= rows["Sampling"].p95
