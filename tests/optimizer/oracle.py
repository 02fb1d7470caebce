"""The lazy plan path, kept as the oracle of the batched one.

:func:`repro.optimizer.plan_with` estimates every connected sub-plan in
one ``estimate_many`` call and then enumerates over the table.  The path
it replaced pulled each cardinality the enumerator probed, one
``estimate`` call per subset, through a memo; :func:`lazy_plan` is that
path.  The DP and greedy enumerators only ever probe connected subsets,
so both paths must choose the same plan at the same cost.

Import as ``from tests.optimizer.oracle import lazy_plan``.
"""

from __future__ import annotations

import numpy as np

from repro.optimizer import dp_optimal_plan, greedy_plan, sub_query


class CardinalityCache:
    """Memoizes an estimator's sub-query cardinalities for one query,
    floored at 1.0, estimating each subset on its first probe."""

    def __init__(self, estimator, query):
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


def lazy_plan(estimator, query, strategy: str = "dp"):
    """(plan, C_out, cache): the enumerator probing ``estimator`` lazily."""
    cards = CardinalityCache(estimator, query)
    enumerate_plans = greedy_plan if strategy == "greedy" else dp_optimal_plan
    plan, cost = enumerate_plans(query, cards)
    return plan, cost, cards


class ScriptedEstimator:
    """Estimator stub: scripted cardinalities by alias subset, with every
    ``estimate`` and ``estimate_many`` call recorded."""

    name = "scripted"

    def __init__(self, table: dict, default: float = 100.0):
        self.table = dict(table)
        self.default = default
        self.calls: list[str] = []
        self.batches: list[int] = []

    def estimate(self, query) -> float:
        self.calls.append("estimate")
        return self.table.get(frozenset(query.aliases), self.default)

    def estimate_many(self, queries) -> np.ndarray:
        self.calls.append("estimate_many")
        self.batches.append(len(queries))
        return np.array(
            [self.table.get(frozenset(q.aliases), self.default) for q in queries],
            dtype=np.float64,
        )
