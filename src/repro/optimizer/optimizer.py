"""The estimator-driven plan optimizer and the plan-quality experiment.

"The estimates produced by Deep Sketches can directly be leveraged by
existing, sophisticated join enumeration algorithms and cost models."
(paper, Section 1.)  :func:`plan_with` is that consumer: one
``estimate_many`` batch of any
:class:`~repro.core.estimator.CardinalityEstimator` over the connected
sub-plans, then the enumerator under the C_out model.  The served path
(:func:`~repro.serve.plan.plan_query`) fills the same table from one
``serve`` batch.

Plan quality is scored with the standard JOB methodology: the chosen
plan is re-costed under *true* cardinalities and compared to the best
plan the truth oracle would pick.  A factor of 1.0 means the estimator's
errors did not change the plan; larger factors quantify the damage bad
estimates do to the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.truth import TruthEstimator
from ..core.estimator import CardinalityEstimator
from ..db.database import Database
from ..errors import QueryError
from ..db.query import Query
from .cost import SubplanCards, cout_cost
from .enumerate import connected_subsets, dp_optimal_plan, greedy_plan
from .plans import PlanNode, sub_query


def plan_with(
    estimator: CardinalityEstimator, query: Query, strategy: str = "dp"
) -> tuple[PlanNode, float, SubplanCards]:
    """(plan, C_out, table): every connected sub-plan estimated in ONE
    ``estimate_many`` call, then ``strategy`` ("dp" or "greedy")."""
    subsets = connected_subsets(query)
    values = estimator.estimate_many([sub_query(query, s) for s in subsets])
    cards = SubplanCards()
    for subset, value in zip(subsets, values):
        cards.put(subset, value)
    enumerate_plans = greedy_plan if strategy == "greedy" else dp_optimal_plan
    plan, cost = enumerate_plans(query, cards)
    return plan, cost, cards


@dataclass(frozen=True)
class PlannedQuery:
    """The optimizer's output for one query."""

    query: Query
    plan: PlanNode
    estimated_cost: float

    def __str__(self) -> str:
        return f"{self.plan}  (est. C_out {self.estimated_cost:.0f})"


class PlanOptimizer:
    """DP join optimizer parameterized by a cardinality estimator."""

    def __init__(
        self,
        db: Database,
        estimator: CardinalityEstimator,
        strategy: str = "dp",
    ):
        if strategy not in ("dp", "greedy"):
            raise QueryError(f"unknown enumeration strategy {strategy!r}")
        self.db = db
        self.estimator = estimator
        self.strategy = strategy
        self._truth = TruthEstimator(db)

    def optimize(self, query: Query) -> PlannedQuery:
        """Pick the cheapest plan under the configured estimator."""
        plan, cost, _ = plan_with(self.estimator, query, self.strategy)
        return PlannedQuery(query=query, plan=plan, estimated_cost=cost)

    # ------------------------------------------------------------------
    # plan-quality scoring
    # ------------------------------------------------------------------
    def true_cost_of(self, planned: PlannedQuery) -> float:
        """C_out of the chosen plan under true cardinalities."""
        _, _, truth = plan_with(self._truth, planned.query)
        return cout_cost(planned.plan, truth)

    def optimal_true_cost(self, query: Query) -> float:
        """True cost of the best plan the truth oracle would choose."""
        return plan_with(self._truth, query)[1]

    def plan_quality_factor(self, query: Query) -> float:
        """true cost of chosen plan / true cost of optimal plan (>= 1).

        The headline metric of the plan-quality experiment: 1.0 means
        the estimator's errors were harmless for this query.  One
        estimator batch picks the plan; one truth batch costs it and
        the truth-optimal plan.
        """
        planned = self.optimize(query)
        _, optimal, truth = plan_with(self._truth, query)
        chosen = cout_cost(planned.plan, truth)
        if optimal <= 0:
            return 1.0  # empty result: every plan is free
        return max(chosen / optimal, 1.0)
