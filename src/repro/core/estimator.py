"""The estimator interface shared by the sketch and all baselines.

"The interface of a sketch is very simple, it consumes a SQL query and
returns a cardinality estimate." (paper Figure 1b).  Every estimator in
this repository — the Deep Sketch, the HyPer-style and PostgreSQL-style
baselines, pure sampling, and the truth oracle — implements this
protocol, so the benchmark harnesses treat them uniformly.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..db.query import Query


@runtime_checkable
class CardinalityEstimator(Protocol):
    """Anything that maps a query to an estimated result size."""

    #: Display name used in result tables (e.g. "Deep Sketch").
    name: str

    def estimate(self, query: Query) -> float:
        """Estimated COUNT(*) of ``query`` (always >= 1)."""
        ...


def estimate_sql(estimator: CardinalityEstimator, sql: str) -> float:
    """Convenience: parse a SQL string and estimate it."""
    from ..db.sql import parse_sql

    return estimator.estimate(parse_sql(sql))
