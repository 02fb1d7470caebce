"""``estimate_many`` of every baseline equals ``estimate``, query by query.

The plan optimizer and the harnesses estimate in batches; each baseline
must give exactly the values its one-query ``estimate`` gives, with
duplicates, cache hits and an empty batch included, and the estimators
that execute queries must do so in one ``execute_counts`` call.
"""

import numpy as np
import pytest

from repro.baselines import (
    HyperEstimator,
    PostgresEstimator,
    SamplingEstimator,
    TruthEstimator,
)
from repro.baselines import sampling_only, truth
from repro.core.estimator import CardinalityEstimator
from repro.db import execute_count
from repro.workload import TrainingQueryGenerator, spec_for_imdb

FACTORIES = {
    "truth": lambda db: TruthEstimator(db),
    "sampling": lambda db: SamplingEstimator(db, sample_size=150, seed=9),
    "hyper": lambda db: HyperEstimator(db, sample_size=150, seed=9),
    "postgres": lambda db: PostgresEstimator(db),
}


@pytest.fixture(scope="module")
def workload(imdb_small):
    """40 drawn queries followed by repeats of a few of them."""
    queries = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=31).draw_many(40)
    return queries + queries[5:9] + queries[:2]


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestEqualsEstimate:
    def test_fresh_batch_equals_one_at_a_time(self, imdb_small, workload, kind):
        batched = FACTORIES[kind](imdb_small).estimate_many(workload)
        singles = FACTORIES[kind](imdb_small)
        want = np.array([singles.estimate(q) for q in workload])
        assert batched.dtype == np.float64 and batched.shape == (len(workload),)
        np.testing.assert_array_equal(batched, want)

    def test_partly_cached_batch(self, imdb_small, workload, kind):
        estimator = FACTORIES[kind](imdb_small)
        want = [estimator.estimate(q) for q in workload[::3]]
        batched = estimator.estimate_many(workload)
        np.testing.assert_array_equal(batched[::3], want)
        np.testing.assert_array_equal(
            batched, [estimator.estimate(q) for q in workload]
        )

    def test_empty_batch(self, imdb_small, kind):
        batched = FACTORIES[kind](imdb_small).estimate_many([])
        assert batched.dtype == np.float64 and batched.shape == (0,)

    def test_is_a_cardinality_estimator(self, imdb_small, kind):
        assert isinstance(FACTORIES[kind](imdb_small), CardinalityEstimator)


def _spy(monkeypatch, module):
    """Record every ``execute_counts`` batch ``module`` makes."""
    batches = []
    real = module.execute_counts

    def counted(db, queries):
        batches.append(list(queries))
        return real(db, queries)

    monkeypatch.setattr(module, "execute_counts", counted)
    return batches


def test_truth_counts_its_distinct_misses_in_one_call(
    imdb_small, workload, monkeypatch
):
    oracle = TruthEstimator(imdb_small)
    oracle.estimate(workload[0])
    batches = _spy(monkeypatch, truth)
    values = oracle.estimate_many(workload)
    assert len(batches) == 1
    assert batches[0] == [q for q in dict.fromkeys(workload) if q != workload[0]]
    assert values[0] == execute_count(imdb_small, workload[0])
    assert oracle.estimate_many(workload).tolist() == values.tolist()


def test_sampling_counts_its_distinct_skeletons_in_one_call(
    imdb_small, workload, monkeypatch
):
    estimator = FACTORIES["sampling"](imdb_small)
    batches = _spy(monkeypatch, sampling_only)
    estimator.estimate_many(workload)
    skeletons = list(dict.fromkeys(estimator._skeleton(q) for q in workload))
    assert batches == [skeletons]
    assert all(not s.predicates for s in skeletons)
