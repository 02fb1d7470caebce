"""The C_out cost model.

C_out (Cluet & Moerkotte) charges a plan the sum of the cardinalities of
all intermediate join results it materializes.  It is the standard
yardstick in the cardinality-estimation literature (used throughout the
Join Order Benchmark papers the demo builds on [11, 12]) because it
isolates the effect of *cardinality estimates* on plan choice from
physical operator details.

The same plan can be costed under different estimators; costing under
the truth oracle gives the plan's *true* cost, which is how plan quality
is scored.
"""

from __future__ import annotations

from ..core.estimator import CardinalityEstimator
from ..db.query import Query
from .plans import PlanNode, sub_query


class CardinalityCache:
    """Memoizes an estimator's sub-query cardinalities for one query.

    The DP enumerator probes the same alias subsets many times; caching
    by subset keeps estimator calls to one per connected subset.
    """

    def __init__(self, estimator: CardinalityEstimator, query: Query):
        self.estimator = estimator
        self.query = query
        self._cache: dict[frozenset[str], float] = {}

    def cardinality(self, aliases: frozenset[str]) -> float:
        if aliases not in self._cache:
            self._cache[aliases] = max(
                float(self.estimator.estimate(sub_query(self.query, aliases))), 1.0
            )
        return self._cache[aliases]

    @property
    def probes(self) -> int:
        return len(self._cache)


def cout_cost(plan: PlanNode, cards: CardinalityCache) -> float:
    """C_out of ``plan`` under the cached estimator.

    Base-table scans are excluded (their size does not depend on the
    join order); every join node contributes its output cardinality,
    including the root.
    """
    return sum(cards.cardinality(node.aliases) for node in plan.join_nodes())


def true_cost(plan: PlanNode, query: Query, truth_cards: CardinalityCache) -> float:
    """C_out of ``plan`` under the truth oracle (plan-quality scoring)."""
    return cout_cost(plan, truth_cards)
