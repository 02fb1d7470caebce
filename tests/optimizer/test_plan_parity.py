"""The batched plan path against the lazy oracle, estimator by estimator.

:func:`repro.optimizer.plan_with` (one ``estimate_many`` batch, then the
enumerator over the table) must choose the plan the lazy path
(:func:`tests.optimizer.oracle.lazy_plan`, one ``estimate`` per probed
subset) chooses, for both strategies, over JOB-light queries and the
template suite's deeper 4-6 relation joins:

* the truth oracle, HyPer and PostgreSQL compute each estimate with the
  same arithmetic either way, so order and cost are exactly equal;
* the Deep Sketch's batched forward rounds differently from its
  one-query forward (~1e-15), so the cost agrees to 1e-12 relative.
"""

import pytest

from repro.baselines import HyperEstimator, PostgresEstimator, TruthEstimator
from repro.optimizer import PlanOptimizer, plan_with
from repro.workload import (
    JobLightConfig,
    SuiteConfig,
    generate_job_light,
    generate_template_suite,
    spec_for_imdb,
)

from tests.optimizer.oracle import lazy_plan

STRATEGIES = ("dp", "greedy")
BASELINES = {
    "truth": TruthEstimator,
    "hyper": lambda db: HyperEstimator(db, sample_size=200, seed=3),
    "postgres": PostgresEstimator,
}


@pytest.fixture(scope="module")
def plan_queries(imdb_small):
    """40 JOB-light queries and every 4-6 relation suite instance."""
    joblight = generate_job_light(imdb_small, JobLightConfig(n_queries=40, seed=5))
    suite = generate_template_suite(
        imdb_small,
        spec_for_imdb(),
        SuiteConfig(n_templates=12, queries_per_template=2, max_joins=5),
        seed=3,
    )
    deep = [q for q in suite.queries() if 4 <= len(q.aliases) <= 6]
    assert len(deep) >= 10
    assert {len(q.aliases) for q in deep} >= {4, 5, 6}
    return joblight + deep


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", sorted(BASELINES))
def test_baseline_plans_are_exactly_the_lazy_plans(
    imdb_small, plan_queries, kind, strategy
):
    for query in plan_queries:
        # Fresh estimators: neither path may read the other's cache.
        want_plan, want_cost, _ = lazy_plan(BASELINES[kind](imdb_small), query, strategy)
        plan, cost, _ = plan_with(BASELINES[kind](imdb_small), query, strategy)
        assert str(plan) == str(want_plan) and plan == want_plan, query
        assert cost == want_cost, query


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sketch_plans_are_the_lazy_plans(plan_queries, trained_sketch, strategy):
    sketch, _ = trained_sketch
    try:
        for query in plan_queries:
            sketch.clear_cache()
            want_plan, want_cost, _ = lazy_plan(sketch, query, strategy)
            sketch.clear_cache()
            plan, cost, _ = plan_with(sketch, query, strategy)
            assert plan == want_plan, query
            assert cost == pytest.approx(want_cost, rel=1e-12, abs=0.0), query
    finally:
        sketch.clear_cache()


@pytest.mark.parametrize("kind", sorted(BASELINES))
def test_quality_factor_matches_the_lazy_scoring(imdb_small, plan_queries, kind):
    optimizer = PlanOptimizer(imdb_small, BASELINES[kind](imdb_small))
    for query in plan_queries[::4]:
        chosen, _, _ = lazy_plan(BASELINES[kind](imdb_small), query)
        _, optimal, truth = lazy_plan(TruthEstimator(imdb_small), query)
        want = 1.0 if optimal <= 0 else max(
            sum(truth.cardinality(n.aliases) for n in chosen.join_nodes()) / optimal,
            1.0,
        )
        assert optimizer.plan_quality_factor(query) == want, query
