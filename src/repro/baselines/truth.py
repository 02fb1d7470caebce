"""The truth oracle.

The demo obtains true cardinalities "by executing the queries with
HyPer"; this estimator does the same against the in-memory engine.  It
anchors every benchmark's q-error computation and doubles as a trivially
correct :class:`~repro.core.estimator.CardinalityEstimator`.
"""

from __future__ import annotations

import numpy as np

from ..db.database import Database
from ..db.executor import execute_counts
from ..db.query import Query


class TruthEstimator:
    """Exact COUNT(*) via the execution engine (no estimation error)."""

    name = "True cardinality"

    def __init__(self, db: Database):
        self.db = db
        self._cache: dict[Query, int] = {}

    def estimate(self, query: Query) -> float:
        """Exact COUNT(*) of ``query`` (cached per query object)."""
        return float(self.estimate_many([query])[0])

    def estimate_many(self, queries: list[Query]) -> np.ndarray:
        """Exact COUNT(*) of every query, the uncached ones counted in
        one :func:`~repro.db.executor.execute_counts` call."""
        missing = [q for q in dict.fromkeys(queries) if q not in self._cache]
        self._cache.update(zip(missing, execute_counts(self.db, missing)))
        return np.array([self._cache[q] for q in queries], dtype=np.float64)
