"""PlanOptimizer unit tests and `connected_subsets` enumeration tests."""

import pytest

from repro.baselines import TruthEstimator
from repro.errors import QueryError
from repro.optimizer import (
    MAX_DP_RELATIONS,
    PlannedQuery,
    PlanOptimizer,
    connected_subsets,
    cout_cost,
    plan_with,
    validate_plan,
)
from repro.optimizer.plans import LeafNode
from repro.workload import JoinEdge, Query, TableRef

from tests.optimizer.oracle import ScriptedEstimator


def chain_query(n):
    tables = tuple(TableRef(f"t{i}", f"a{i}") for i in range(n))
    joins = tuple(JoinEdge(f"a{i}", "x", f"a{i+1}", "x") for i in range(n - 1))
    return Query(tables=tables, joins=joins)


def tiny_star_query():
    return Query(
        tables=(
            TableRef("title", "t"),
            TableRef("movie_keyword", "mk"),
            TableRef("movie_info", "mi"),
        ),
        joins=(
            JoinEdge("mk", "movie_id", "t", "id"),
            JoinEdge("mi", "movie_id", "t", "id"),
        ),
    )


class TestPlanOptimizer:
    def test_single_table(self, tiny_db):
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator({}))
        planned = optimizer.optimize(Query(tables=(TableRef("title", "t"),)))
        assert isinstance(planned, PlannedQuery)
        assert planned.plan == LeafNode("t")
        assert planned.estimated_cost == 0.0

    def test_two_way_join(self, tiny_db):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            joins=(JoinEdge("mk", "movie_id", "t", "id"),),
        )
        optimizer = PlanOptimizer(
            tiny_db, ScriptedEstimator({frozenset(["t", "mk"]): 42.0})
        )
        planned = optimizer.optimize(query)
        validate_plan(planned.plan, query)
        assert planned.estimated_cost == 42.0

    def test_picks_the_cheap_side_of_a_star(self, tiny_db):
        scripted = {
            frozenset(["t", "mk"]): 1000.0,
            frozenset(["t", "mi"]): 2.0,
            frozenset(["t", "mk", "mi"]): 50.0,
        }
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator(scripted))
        planned = optimizer.optimize(tiny_star_query())
        # The cheap (t ⨝ mi) intermediate must be built first.
        inner = next(iter(planned.plan.join_nodes()))
        assert inner.aliases == frozenset(["t", "mi"])
        assert planned.estimated_cost == pytest.approx(52.0)

    def test_cost_consistent_with_cout(self, tiny_db):
        estimator = ScriptedEstimator({}, default=9.0)
        optimizer = PlanOptimizer(tiny_db, estimator)
        query = tiny_star_query()
        planned = optimizer.optimize(query)
        _, _, cards = plan_with(estimator, query)
        assert planned.estimated_cost == pytest.approx(
            cout_cost(planned.plan, cards)
        )

    def test_disconnected_join_graph_rejected(self, tiny_db):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk"))
        )
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator({}))
        with pytest.raises(QueryError):
            optimizer.optimize(query)

    def test_unknown_strategy_rejected(self, tiny_db):
        with pytest.raises(QueryError):
            PlanOptimizer(tiny_db, ScriptedEstimator({}), strategy="quantum")

    def test_truth_estimator_is_optimal(self, tiny_db):
        optimizer = PlanOptimizer(tiny_db, TruthEstimator(tiny_db))
        factor = optimizer.plan_quality_factor(tiny_star_query())
        assert factor == pytest.approx(1.0)

    def test_quality_factor_at_least_one(self, tiny_db):
        # A deliberately misleading estimator can only make plans worse,
        # never better than the truth-optimal plan.
        scripted = {
            frozenset(["t", "mk"]): 1.0,
            frozenset(["t", "mi"]): 1e6,
            frozenset(["t", "mk", "mi"]): 1.0,
        }
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator(scripted))
        factor = optimizer.plan_quality_factor(tiny_star_query())
        assert factor >= 1.0


class _CountedTruth(TruthEstimator):
    """The truth oracle with its batches recorded."""

    def __init__(self, db):
        super().__init__(db)
        self.batches: list[int] = []

    def estimate(self, query):  # pragma: no cover - must not be called
        raise AssertionError("the plan path estimates in batches")

    def estimate_many(self, queries):
        self.batches.append(len(queries))
        return super().estimate_many(queries)


class TestOneBatchPerPlan:
    """Every plan is one ``estimate_many`` call over its connected
    sub-plans; no method probes an estimator one query at a time."""

    @pytest.mark.parametrize("strategy", ["dp", "greedy"])
    def test_optimize_is_one_estimate_many_call(self, tiny_db, strategy):
        estimator = ScriptedEstimator({}, default=9.0)
        query = tiny_star_query()
        PlanOptimizer(tiny_db, estimator, strategy).optimize(query)
        assert estimator.calls == ["estimate_many"]
        assert estimator.batches == [len(connected_subsets(query))]

    def test_quality_factor_is_one_estimator_and_one_truth_batch(self, tiny_db):
        estimator = ScriptedEstimator({}, default=9.0)
        optimizer = PlanOptimizer(tiny_db, estimator)
        optimizer._truth = truth = _CountedTruth(tiny_db)
        query = tiny_star_query()
        optimizer.plan_quality_factor(query)
        n = len(connected_subsets(query))
        assert estimator.calls == ["estimate_many"]
        assert estimator.batches == [n]
        assert truth.batches == [n]

    def test_true_costs_are_one_truth_batch_each(self, tiny_db):
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator({}, default=9.0))
        optimizer._truth = truth = _CountedTruth(tiny_db)
        query = tiny_star_query()
        optimizer.true_cost_of(optimizer.optimize(query))
        optimizer.optimal_true_cost(query)
        assert truth.batches == [len(connected_subsets(query))] * 2

    def test_single_table_estimates_its_one_subset(self, tiny_db):
        estimator = ScriptedEstimator({}, default=9.0)
        planned = PlanOptimizer(tiny_db, estimator).optimize(
            Query(tables=(TableRef("title", "t"),))
        )
        assert planned.estimated_cost == 0.0
        assert estimator.batches == [1]

    def test_unplannable_query_estimates_nothing(self, tiny_db):
        estimator = ScriptedEstimator({})
        disconnected = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk"))
        )
        for strategy in ("dp", "greedy"):
            with pytest.raises(QueryError):
                PlanOptimizer(tiny_db, estimator, strategy).optimize(disconnected)
        assert estimator.calls == []


class TestConnectedSubsets:
    def test_singletons_first_full_query_last(self):
        query = chain_query(3)
        subsets = connected_subsets(query)
        n = len(query.aliases)
        assert subsets[:n] == [frozenset((a,)) for a in query.aliases]
        assert subsets[-1] == frozenset(query.aliases)

    def test_excludes_disconnected_subsets(self):
        # Chain a0-a1-a2: {a0, a2} has no join edge.
        subsets = connected_subsets(chain_query(3))
        assert frozenset(["a0", "a2"]) not in subsets
        assert len(subsets) == 6  # 3 singletons + {01} + {12} + {012}

    def test_deterministic_order(self):
        query = chain_query(4)
        assert connected_subsets(query) == connected_subsets(query)

    def test_single_table(self):
        subsets = connected_subsets(Query(tables=(TableRef("t", "t"),)))
        assert subsets == [frozenset(["t"])]

    def test_guards_match_the_dp(self):
        with pytest.raises(QueryError):
            connected_subsets(chain_query(MAX_DP_RELATIONS + 1))
        with pytest.raises(QueryError):
            connected_subsets(
                Query(tables=(TableRef("a", "a"), TableRef("b", "b")))
            )
