"""PostgreSQL-style cardinality estimator.

Reimplements the estimation pipeline of PostgreSQL's planner (the
version the paper benchmarks is 10.3) over this engine's ANALYZE
statistics:

* equality selectivity (``eqsel``): MCV frequency if the literal is a
  most-common value, otherwise the remaining mass spread uniformly over
  the remaining distinct values;
* inequality selectivity (``scalarineqsel``): the fraction of MCVs
  satisfying the comparison plus the histogram-interpolated fraction of
  the remaining rows;
* conjunctions multiply (attribute-value independence) — the assumption
  that correlated data like IMDb breaks, producing the large tail errors
  of the paper's Table 1;
* equi-join selectivity (``eqjoinsel`` without MCV matching):
  ``1 / max(nd_left, nd_right)``, applied per join edge on the cross
  product of filtered table sizes;
* PostgreSQL's default selectivities when a literal is out of range or
  statistics are unusable (``DEFAULT_EQ_SEL = 0.005``,
  ``DEFAULT_INEQ_SEL = 1/3``);
* final clamp to at least one row.
"""

from __future__ import annotations

import numpy as np

from ..db.database import Database
from ..db.statistics import ColumnStatistics, TableStatistics, analyze_database
from ..db.types import DType
from ..db.query import Predicate, Query

#: PostgreSQL's hardwired defaults (src/include/utils/selfuncs.h).
DEFAULT_EQ_SEL = 0.005
DEFAULT_INEQ_SEL = 1.0 / 3.0


def _encode_literal(db: Database, table: str, column: str, literal) -> float | None:
    """Literal in the column's encoded (numeric) domain, None if absent."""
    col = db.table(table).column(column)
    encoded = col.encode_literal(literal)
    if encoded is None:
        return None
    return float(encoded)


def eq_selectivity(stats: ColumnStatistics, value: float) -> float:
    """``eqsel``: P(column = value)."""
    if stats.n_distinct == 0:
        return 0.0
    mcv_hit = np.flatnonzero(stats.mcv_values == value)
    if mcv_hit.size:
        return float(stats.mcv_freqs[mcv_hit[0]])
    if value < stats.min_value or value > stats.max_value:
        return 0.0
    if stats.remaining_distinct <= 0:
        return DEFAULT_EQ_SEL
    return stats.remaining_frac / stats.remaining_distinct


def _histogram_fraction_below(stats: ColumnStatistics, value: float) -> float:
    """Fraction of histogram-covered rows strictly below ``value``."""
    bounds = stats.histogram_bounds
    if bounds.size < 2:
        return DEFAULT_INEQ_SEL
    if value <= bounds[0]:
        return 0.0
    if value >= bounds[-1]:
        return 1.0
    # Locate the bin and interpolate linearly within it, as PostgreSQL's
    # ineq_histogram_selectivity does.
    idx = int(np.searchsorted(bounds, value, side="right")) - 1
    idx = min(idx, bounds.size - 2)
    lo, hi = bounds[idx], bounds[idx + 1]
    within = 0.5 if hi <= lo else (value - lo) / (hi - lo)
    n_bins = bounds.size - 1
    return (idx + within) / n_bins


def range_selectivity(stats: ColumnStatistics, op: str, value: float) -> float:
    """``scalarineqsel``: P(column <op> value) for <, >, <=, >=."""
    if stats.n_distinct == 0:
        return 0.0
    # MCV part: exact count of most-common values satisfying the op.
    if op in ("<", "<="):
        mcv_mask = (
            stats.mcv_values < value if op == "<" else stats.mcv_values <= value
        )
    else:
        mcv_mask = (
            stats.mcv_values > value if op == ">" else stats.mcv_values >= value
        )
    mcv_part = float(stats.mcv_freqs[mcv_mask].sum()) if stats.mcv_freqs.size else 0.0

    below = _histogram_fraction_below(stats, value)
    if op in ("<", "<="):
        hist_fraction = below
    else:
        hist_fraction = 1.0 - below
    return float(np.clip(mcv_part + stats.remaining_frac * hist_fraction, 0.0, 1.0))


def predicate_selectivity(
    db: Database, stats: TableStatistics, table: str, pred: Predicate
) -> float:
    """Selectivity of one predicate from the table's statistics."""
    col_stats = stats.column(pred.column)
    if pred.op == "in":
        # ``scalararraysel`` for = ANY: sum the members' equality
        # selectivities (members are distinct, so no overlap correction).
        total = 0.0
        for member in pred.literal:
            value = _encode_literal(db, table, pred.column, member)
            if value is not None:
                total += eq_selectivity(col_stats, value)
        return float(np.clip(total, 0.0, 1.0))
    value = _encode_literal(db, table, pred.column, pred.literal)
    if value is None:
        # A string literal absent from the dictionary: '=' selects
        # nothing, '<>' selects every non-null row.
        return 0.0 if pred.op == "=" else 1.0 - col_stats.null_frac
    if pred.op == "=":
        return eq_selectivity(col_stats, value)
    if pred.op == "<>":
        return max(1.0 - col_stats.null_frac - eq_selectivity(col_stats, value), 0.0)
    return range_selectivity(col_stats, pred.op, value)


class PostgresEstimator:
    """The System-R/PostgreSQL estimation pipeline over ANALYZE stats."""

    name = "PostgreSQL"

    def __init__(self, db: Database, mcv_size: int = 25, histogram_bins: int = 50):
        self.db = db
        self.stats = analyze_database(db, mcv_size=mcv_size, histogram_bins=histogram_bins)

    # ------------------------------------------------------------------
    def table_selectivity(self, query: Query, alias: str) -> float:
        """Product of the alias' predicate selectivities (independence)."""
        table = query.alias_table(alias)
        selectivity = 1.0
        for pred in query.predicates_for(alias):
            selectivity *= predicate_selectivity(
                self.db, self.stats[table], table, pred
            )
        return float(np.clip(selectivity, 0.0, 1.0))

    def join_selectivity(self, query: Query) -> float:
        """Product of per-edge ``eqjoinsel`` factors."""
        selectivity = 1.0
        for join in query.joins:
            nd = []
            for alias in (join.left_alias, join.right_alias):
                table = query.alias_table(alias)
                col_stats = self.stats[table].column(join.side_for(alias))
                nd.append(max(col_stats.n_distinct, 1))
            selectivity *= 1.0 / max(nd)
        return selectivity

    def estimate(self, query: Query) -> float:
        """Filtered cross product x eqjoinsel factors, clamped to >= 1."""
        rows = 1.0
        for ref in query.tables:
            table_rows = self.stats[ref.table].n_rows
            rows *= max(table_rows, 1) * self.table_selectivity(query, ref.alias)
        rows *= self.join_selectivity(query)
        return max(rows, 1.0)
