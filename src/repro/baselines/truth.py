"""The truth oracle.

The demo obtains true cardinalities "by executing the queries with
HyPer"; this estimator does the same against the in-memory engine.  It
anchors every benchmark's q-error computation and doubles as a trivially
correct :class:`~repro.core.estimator.CardinalityEstimator`.
"""

from __future__ import annotations

from ..db.database import Database
from ..db.executor import execute_count
from ..db.query import Query


class TruthEstimator:
    """Exact COUNT(*) via the execution engine (no estimation error)."""

    name = "True cardinality"

    def __init__(self, db: Database):
        self.db = db
        self._cache: dict[Query, int] = {}

    def estimate(self, query: Query) -> float:
        """Exact COUNT(*) of ``query`` (cached per query object)."""
        if query not in self._cache:
            self._cache[query] = execute_count(self.db, query)
        return float(self._cache[query])
