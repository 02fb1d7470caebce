"""Sketch advisor: which schema parts deserve a Deep Sketch?

The paper's conclusions name this as the open question the demo
"currently outsource[s] to our users": *for which schema parts should we
build such sketches?*  This module implements the natural workload-driven
answer as a concrete, testable policy:

1. collect the table subsets used by a (past) workload,
2. merge each query's subset upward into the smallest *candidate* that
   covers it (candidates are the distinct table sets observed, closed
   under the queries they would serve),
3. greedily pick candidates maximizing covered query volume per unit of
   training cost, until the workload is covered or a sketch budget is
   exhausted.

Training cost is modelled as proportional to the number of tables (more
tables -> larger featurization and more training queries needed), which
matches the demo's guidance that "for a small number of tables, 10,000
queries will already be sufficient".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..errors import ReproError
from ..db.query import Query


@dataclass(frozen=True)
class SketchRecommendation:
    """One recommended sketch: its table subset and what it serves."""

    tables: tuple[str, ...]
    queries_covered: int
    workload_fraction: float
    #: Relative training-cost estimate (1.0 = a single-table sketch).
    cost: float

    def __str__(self) -> str:
        names = ", ".join(self.tables)
        return (
            f"sketch({names}) covers {self.queries_covered} queries "
            f"({self.workload_fraction:.0%}) at cost {self.cost:.1f}"
        )


def _table_set(query: Query) -> frozenset[str]:
    return frozenset(t.table for t in query.tables)


def _cost(tables: frozenset[str]) -> float:
    """Training-cost model: super-linear in the table count (vocabulary,
    join signatures, and the query space all grow with it)."""
    return float(len(tables)) ** 1.5


def recommend_sketches(
    workload: list[Query],
    max_sketches: int | None = None,
    min_coverage: float = 0.95,
) -> list[SketchRecommendation]:
    """Recommend table subsets for sketches serving ``workload``.

    Returns recommendations in pick order (most valuable first).  Stops
    when ``min_coverage`` of the workload is covered or ``max_sketches``
    picks were made.  A query is served by a sketch whose table set is a
    superset of the query's tables.
    """
    if not workload:
        raise ReproError("cannot recommend sketches for an empty workload")
    if not 0.0 < min_coverage <= 1.0:
        raise ReproError(f"min_coverage must be in (0, 1], got {min_coverage}")

    subset_counts = Counter(_table_set(q) for q in workload)
    total = len(workload)

    # Candidates: every observed subset (a sketch exactly fitting some
    # query class) — observed supersets subsume their subsets at a cost.
    candidates = set(subset_counts)

    recommendations: list[SketchRecommendation] = []
    uncovered: Counter = Counter(subset_counts)
    covered_queries = 0

    while uncovered:
        if max_sketches is not None and len(recommendations) >= max_sketches:
            break
        if covered_queries / total >= min_coverage:
            break

        def gain(candidate: frozenset[str]) -> float:
            served = sum(
                count for subset, count in uncovered.items() if subset <= candidate
            )
            return served / _cost(candidate)

        best = max(candidates, key=gain)
        served_subsets = [s for s in uncovered if s <= best]
        served_count = sum(uncovered[s] for s in served_subsets)
        if served_count == 0:
            break  # no remaining candidate helps (shouldn't happen)
        for subset in served_subsets:
            del uncovered[subset]
        covered_queries += served_count
        recommendations.append(
            SketchRecommendation(
                tables=tuple(sorted(best)),
                queries_covered=served_count,
                workload_fraction=served_count / total,
                cost=_cost(best),
            )
        )
    return recommendations


def coverage_of(
    recommendations: list[SketchRecommendation], workload: list[Query]
) -> float:
    """Fraction of ``workload`` served by the recommended sketches."""
    if not workload:
        raise ReproError("empty workload")
    sets = [frozenset(r.tables) for r in recommendations]
    served = sum(
        1 for q in workload if any(_table_set(q) <= s for s in sets)
    )
    return served / len(workload)
