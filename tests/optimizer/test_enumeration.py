"""DP and greedy enumeration tests, including optimality properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import TruthEstimator
from repro.errors import QueryError
from repro.optimizer import (
    PlanOptimizer,
    SubplanCards,
    cout_cost,
    dp_optimal_plan,
    greedy_plan,
    plan_with,
    validate_plan,
)
from repro.optimizer.plans import JoinNode, LeafNode
from repro.workload import JoinEdge, Predicate, Query, TableRef

from tests.optimizer.oracle import ScriptedEstimator


def table_for(query, scripted: dict, default: float = 100.0) -> SubplanCards:
    """The table ``plan_with`` fills for ``query`` from scripted values."""
    return plan_with(ScriptedEstimator(scripted, default), query)[2]


def chain_query(n):
    """a0 - a1 - ... chain joins (each consecutive pair joined on x)."""
    tables = tuple(TableRef(f"t{i}", f"a{i}") for i in range(n))
    joins = tuple(JoinEdge(f"a{i}", "x", f"a{i+1}", "x") for i in range(n - 1))
    return Query(tables=tables, joins=joins)


class TestDP:
    def test_single_table(self):
        query = Query(tables=(TableRef("t", "t"),))
        cards = table_for(query, {})
        plan, cost = dp_optimal_plan(query, cards)
        assert plan == LeafNode("t")
        assert cost == 0.0

    def test_two_tables(self):
        query = chain_query(2)
        cards = table_for(query, {frozenset(["a0", "a1"]): 42.0})
        plan, cost = dp_optimal_plan(query, cards)
        assert cost == 42.0
        assert plan.aliases == frozenset(["a0", "a1"])

    def test_prefers_cheap_intermediate(self):
        # Chain a0-a1-a2: joining (a1,a2) first is scripted much cheaper.
        scripted = {
            frozenset(["a0", "a1"]): 1000.0,
            frozenset(["a1", "a2"]): 5.0,
            frozenset(["a0", "a1", "a2"]): 50.0,
        }
        query = chain_query(3)
        cards = table_for(query, scripted)
        plan, cost = dp_optimal_plan(query, cards)
        assert cost == 55.0  # 5 (a1⨝a2) + 50 (final)
        first_join = next(iter(plan.join_nodes()))
        assert first_join.aliases == frozenset(["a1", "a2"])

    def test_never_uses_cross_products(self):
        query = chain_query(4)
        cards = table_for(query, {}, default=10.0)
        plan, _ = dp_optimal_plan(query, cards)
        validate_plan(plan, query)
        # Every join node of a chain plan must be a connected subset.
        for node in plan.join_nodes():
            indices = sorted(int(a[1:]) for a in node.aliases)
            assert indices == list(range(indices[0], indices[-1] + 1))

    def test_disconnected_rejected(self):
        query = Query(tables=(TableRef("a", "a"), TableRef("b", "b")))
        with pytest.raises(QueryError):
            dp_optimal_plan(query, SubplanCards())

    def test_relation_limit(self):
        query = chain_query(11)
        with pytest.raises(QueryError):
            dp_optimal_plan(query, SubplanCards())

    def test_dp_cost_consistent_with_cout(self):
        query = chain_query(4)
        cards = table_for(query, {}, default=7.0)
        plan, cost = dp_optimal_plan(query, cards)
        assert cost == pytest.approx(cout_cost(plan, cards))


class TestDPOptimalityProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=7, max_size=7))
    def test_dp_beats_all_left_deep_orders(self, card_values):
        """DP's plan must cost <= every left-deep permutation's plan
        under the same scripted cardinalities (3-relation chain)."""
        query = chain_query(3)
        subsets = [
            frozenset(["a0", "a1"]),
            frozenset(["a1", "a2"]),
            frozenset(["a0", "a2"]),
            frozenset(["a0", "a1", "a2"]),
            frozenset(["a0"]),
            frozenset(["a1"]),
            frozenset(["a2"]),
        ]
        scripted = dict(zip(subsets, card_values))
        cards = table_for(query, scripted)
        _, dp_cost = dp_optimal_plan(query, cards)

        neighbors = {"a0": {"a1"}, "a1": {"a0", "a2"}, "a2": {"a1"}}
        for order in itertools.permutations(["a0", "a1", "a2"]):
            # left-deep; skip orders that need a cross product
            joined = {order[0]}
            plan = LeafNode(order[0])
            valid = True
            for alias in order[1:]:
                if not (neighbors[alias] & joined):
                    valid = False
                    break
                plan = JoinNode(plan, LeafNode(alias))
                joined.add(alias)
            if not valid:
                continue
            assert dp_cost <= cout_cost(plan, cards) + 1e-6


class TestGreedy:
    def test_greedy_valid_plan(self):
        query = chain_query(4)
        cards = table_for(query, {}, default=3.0)
        plan, cost = greedy_plan(query, cards)
        validate_plan(plan, query)
        assert cost == pytest.approx(cout_cost(plan, cards))

    def test_greedy_never_beats_dp(self):
        scripted = {
            frozenset(["a0", "a1"]): 10.0,
            frozenset(["a1", "a2"]): 9.0,
            frozenset(["a2", "a3"]): 8.0,
            frozenset(["a0", "a1", "a2"]): 500.0,
            frozenset(["a1", "a2", "a3"]): 400.0,
            frozenset(["a0", "a1", "a2", "a3"]): 50.0,
        }
        query = chain_query(4)
        cards = table_for(query, scripted, default=300.0)
        _, dp_cost = dp_optimal_plan(query, cards)
        _, greedy_cost = greedy_plan(query, cards)
        assert dp_cost <= greedy_cost + 1e-9


class TestPlanOptimizerOnData:
    def test_quality_factor_at_least_one(self, imdb_small):
        from repro.workload import JobLightConfig, generate_job_light

        workload = [
            q
            for q in generate_job_light(imdb_small, JobLightConfig(n_queries=15, seed=5))
            if q.num_joins >= 2
        ]
        optimizer = PlanOptimizer(imdb_small, TruthEstimator(imdb_small))
        for query in workload[:5]:
            factor = optimizer.plan_quality_factor(query)
            assert factor == pytest.approx(1.0)  # truth estimator is optimal

    def test_strategies(self, imdb_small):
        with pytest.raises(QueryError):
            PlanOptimizer(imdb_small, TruthEstimator(imdb_small), strategy="quantum")
        greedy = PlanOptimizer(imdb_small, TruthEstimator(imdb_small), strategy="greedy")
        query = Query(
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
        planned = greedy.optimize(query)
        validate_plan(planned.plan, query)

    def test_sketch_as_estimator(self, imdb_small, trained_sketch):
        """The headline integration: the Deep Sketch drives the optimizer."""
        sketch, _ = trained_sketch
        optimizer = PlanOptimizer(imdb_small, sketch)
        query = Query(
            tables=(
                TableRef("title", "t"),
                TableRef("movie_keyword", "mk"),
                TableRef("cast_info", "ci"),
            ),
            joins=(
                JoinEdge("mk", "movie_id", "t", "id"),
                JoinEdge("ci", "movie_id", "t", "id"),
            ),
            predicates=(Predicate("t", "production_year", ">", 2005),),
        )
        planned = optimizer.optimize(query)
        validate_plan(planned.plan, query)
        factor = optimizer.plan_quality_factor(query)
        assert np.isfinite(factor) and factor >= 1.0
