"""Join enumeration + cost model consuming cardinality estimates.

The paper's stated downstream use of Deep Sketches (Section 1): feed the
estimates to a join enumerator with a cost model and get better plans.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".cost": ("CardinalityCache", "cout_cost", "true_cost"),
        ".enumerate": (
            "MAX_DP_RELATIONS",
            "connected_subsets",
            "dp_optimal_plan",
            "greedy_plan",
        ),
        ".optimizer": ("PlanOptimizer", "PlannedQuery"),
        ".plans": (
            "JoinNode",
            "LeafNode",
            "PlanNode",
            "sub_query",
            "validate_plan",
        ),
    },
)

__all__ = [
    "PlanNode",
    "LeafNode",
    "JoinNode",
    "sub_query",
    "validate_plan",
    "CardinalityCache",
    "cout_cost",
    "true_cost",
    "connected_subsets",
    "dp_optimal_plan",
    "greedy_plan",
    "MAX_DP_RELATIONS",
    "PlanOptimizer",
    "PlannedQuery",
]
