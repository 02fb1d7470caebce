"""The estimator-driven plan optimizer and the plan-quality experiment.

"The estimates produced by Deep Sketches can directly be leveraged by
existing, sophisticated join enumeration algorithms and cost models."
(paper, Section 1.)  :class:`PlanOptimizer` is that consumer: it wires
any :class:`~repro.core.estimator.CardinalityEstimator` into the DP
enumerator under the C_out model.

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
from .cost import CardinalityCache, cout_cost
from .enumerate import dp_optimal_plan, greedy_plan
from .plans import PlanNode


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
        cards = CardinalityCache(self.estimator, query)
        if self.strategy == "dp":
            plan, cost = dp_optimal_plan(query, cards)
        else:
            plan, cost = greedy_plan(query, cards)
        return PlannedQuery(query=query, plan=plan, estimated_cost=cost)

    # ------------------------------------------------------------------
    # plan-quality scoring
    # ------------------------------------------------------------------
    def true_cost_of(self, planned: PlannedQuery) -> float:
        """C_out of the chosen plan under true cardinalities."""
        truth_cards = CardinalityCache(self._truth, planned.query)
        return cout_cost(planned.plan, truth_cards)

    def optimal_true_cost(self, query: Query) -> float:
        """True cost of the best plan the truth oracle would choose."""
        truth_cards = CardinalityCache(self._truth, query)
        _, cost = dp_optimal_plan(query, truth_cards)
        return cost

    def plan_quality_factor(self, query: Query) -> float:
        """true cost of chosen plan / true cost of optimal plan (>= 1).

        The headline metric of the plan-quality experiment: 1.0 means
        the estimator's errors were harmless for this query.
        """
        planned = self.optimize(query)
        chosen = self.true_cost_of(planned)
        optimal = self.optimal_true_cost(query)
        if optimal <= 0:
            return 1.0  # empty result: every plan is free
        return max(chosen / optimal, 1.0)
