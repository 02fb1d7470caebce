"""The estimator interface shared by the sketch and all baselines.

"The interface of a sketch is very simple, it consumes a SQL query and
returns a cardinality estimate." (paper Figure 1b).  Every estimator in
this repository — the Deep Sketch, the HyPer-style and PostgreSQL-style
baselines, pure sampling, and the truth oracle — implements this
protocol, so the benchmark harnesses treat them uniformly, one query
(``estimate``) or a batch (``estimate_many``) at a time.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..db.query import Query


@runtime_checkable
class CardinalityEstimator(Protocol):
    """Anything that maps a query to an estimated result size."""

    #: Display name used in result tables (e.g. "Deep Sketch").
    name: str

    def estimate(self, query: Query) -> float:
        """Estimated COUNT(*) of ``query`` (the truth oracle's may be 0;
        the estimators' are >= 1)."""
        ...

    def estimate_many(self, queries: list[Query]) -> np.ndarray:
        """``estimate`` of every query, in order, as float64 (the
        sketch's batched forward agrees to ~1e-15 relative)."""
        ...

