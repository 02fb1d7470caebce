"""C_out cost model and sub-plan cardinality table tests."""

import pytest

from repro.optimizer import SubplanCards, cout_cost, plan_with
from repro.optimizer.plans import JoinNode, LeafNode
from repro.workload import JoinEdge, Query, TableRef

from tests.optimizer.oracle import ScriptedEstimator


def star_query():
    """t joined to mk and mi (the tiny-star shape)."""
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


def cards_of(table: dict) -> SubplanCards:
    cards = SubplanCards()
    for aliases, value in table.items():
        cards.put(frozenset(aliases), value)
    return cards


class TestSubplanCards:
    def test_clamps_to_at_least_one(self):
        # Sub-one and negative estimates would make C_out prefer plans
        # through "free" intermediates; the table floors them at 1.
        cards = SubplanCards()
        assert cards.put(frozenset(["t", "mk"]), 0.001) == 1.0
        assert cards.put(frozenset(["t", "mi"]), -5.0) == 1.0
        assert cards.put(frozenset(["t"]), 0) == 1.0
        assert cards.cardinality(frozenset(["t", "mk"])) == 1.0
        assert cards.cardinality(frozenset(["t", "mi"])) == 1.0

    def test_put_stores_and_returns_a_float(self):
        cards = SubplanCards()
        stored = cards.put(frozenset(["t", "mk"]), 42)
        assert stored == 42.0 and type(stored) is float
        assert cards.cardinality(frozenset(["t", "mk"])) == 42.0
        assert cards[frozenset(["t", "mk"])] == 42.0

    def test_unfilled_subset_is_an_error(self):
        # A probe outside the table is an enumeration bug, not a value.
        with pytest.raises(KeyError):
            SubplanCards().cardinality(frozenset(["t", "mk"]))

    def test_plan_with_fills_every_connected_subset_clamped(self):
        query = star_query()
        estimator = ScriptedEstimator({frozenset(["t", "mi"]): 0.25}, default=7.0)
        _, _, cards = plan_with(estimator, query)
        assert set(cards) == {
            frozenset(["t"]),
            frozenset(["mk"]),
            frozenset(["mi"]),
            frozenset(["t", "mk"]),
            frozenset(["t", "mi"]),
            frozenset(["t", "mk", "mi"]),
        }
        assert cards.cardinality(frozenset(["t", "mi"])) == 1.0
        assert cards.cardinality(frozenset(["t", "mk"])) == 7.0
        assert estimator.calls == ["estimate_many"]
        assert estimator.batches == [6]


class TestCoutCost:
    def test_single_table_plan_is_free(self):
        # Base-table scans are excluded: their size does not depend on
        # the join order, and an empty table is never read.
        assert cout_cost(LeafNode("t"), SubplanCards()) == 0.0

    def test_two_way_join_costs_its_output(self):
        cards = cards_of({("t", "mk"): 42.0})
        plan = JoinNode(LeafNode("t"), LeafNode("mk"))
        assert cout_cost(plan, cards) == 42.0

    def test_sums_every_intermediate_including_root(self):
        cards = cards_of({("t", "mk"): 10.0, ("t", "mk", "mi"): 3.0})
        plan = JoinNode(JoinNode(LeafNode("t"), LeafNode("mk")), LeafNode("mi"))
        assert cout_cost(plan, cards) == pytest.approx(13.0)

    def test_cost_depends_on_join_order(self):
        cards = cards_of(
            {("t", "mk"): 1000.0, ("t", "mi"): 2.0, ("t", "mk", "mi"): 50.0}
        )
        via_mk = JoinNode(JoinNode(LeafNode("t"), LeafNode("mk")), LeafNode("mi"))
        via_mi = JoinNode(JoinNode(LeafNode("t"), LeafNode("mi")), LeafNode("mk"))
        assert cout_cost(via_mi, cards) < cout_cost(via_mk, cards)

    def test_true_cost_is_cout_under_the_truth_table(self, tiny_db):
        from repro.baselines import TruthEstimator
        from repro.optimizer import PlanOptimizer

        query = star_query()
        optimizer = PlanOptimizer(tiny_db, ScriptedEstimator({}, default=7.0))
        planned = optimizer.optimize(query)
        _, _, truth = plan_with(TruthEstimator(tiny_db), query)
        assert optimizer.true_cost_of(planned) == cout_cost(planned.plan, truth)
