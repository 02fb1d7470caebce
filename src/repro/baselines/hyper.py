"""HyPer-style cardinality estimator.

HyPer (the research system at TUM the paper compares against) estimates
base-table selectivities by evaluating predicates against small
materialized samples and combines joins under an independence
assumption using distinct-value counts of the join keys.  Its
characteristic failure is exactly the paper's "0-tuple situation":
when no sampled tuple qualifies, it falls back to an educated guess.

The implementation here mirrors that architecture:

* base tables — qualifying fraction of a per-table sample (shared code
  path with the pure-sampling baseline),
* 0-tuple fallback — assume half a tuple qualified,
* joins — per-edge factor ``1 / max(nd_left, nd_right)`` over the cross
  product, with distinct counts taken from the *unfiltered* columns
  (i.e. independence between predicates and join keys — the assumption
  that correlated data violates).

The difference from :class:`~repro.baselines.sampling_only.SamplingEstimator`
is the join model: pure sampling scales an exact unfiltered join size,
HyPer-style composes per-edge independence factors, which is cheaper
but compounds errors across joins.
"""

from __future__ import annotations

import numpy as np

from ..db.database import Database
from ..sampling.sampler import MaterializedSamples, materialize_samples
from ..db.executor import table_filter_mask
from ..db.query import Query


class HyperEstimator:
    """Sample-based selections, independence-based joins."""

    name = "HyPer"

    def __init__(
        self,
        db: Database,
        samples: MaterializedSamples | None = None,
        sample_size: int = 1000,
        seed: int = 1,
    ):
        self.db = db
        self.samples = samples or materialize_samples(
            db, db.table_names(), sample_size, seed=seed
        )
        self._distinct_cache: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def _n_distinct(self, table: str, column: str) -> int:
        key = (table, column)
        if key not in self._distinct_cache:
            self._distinct_cache[key] = max(
                self.db.table(table).column(column).n_distinct(), 1
            )
        return self._distinct_cache[key]

    def table_selectivity(self, query: Query, alias: str) -> float:
        """Sample-estimated selectivity with the 0-tuple fallback."""
        predicates = query.predicates_for(alias)
        if not predicates:
            return 1.0
        sample = self.samples.for_table(query.alias_table(alias))
        if sample.n_rows == 0:
            return 1.0
        qualifying = int(table_filter_mask(sample, predicates).sum())
        if qualifying == 0:
            # The "educated guess" the paper calls out.
            return 0.5 / sample.n_rows
        return qualifying / sample.n_rows

    def join_selectivity(self, query: Query) -> float:
        """Per-edge independence factor 1/max(nd_left, nd_right)."""
        selectivity = 1.0
        for join in query.joins:
            nd = [
                self._n_distinct(query.alias_table(alias), join.side_for(alias))
                for alias in (join.left_alias, join.right_alias)
            ]
            selectivity *= 1.0 / max(nd)
        return selectivity

    def estimate(self, query: Query) -> float:
        """Cross product x sampled selectivities x join factors."""
        rows = 1.0
        for ref in query.tables:
            table = self.db.table(ref.table)
            rows *= max(table.n_rows, 1) * self.table_selectivity(query, ref.alias)
        rows *= self.join_selectivity(query)
        return max(float(np.asarray(rows)), 1.0)

    def estimate_many(self, queries: list[Query]) -> np.ndarray:
        """``estimate`` of every query (arithmetic: nothing to share)."""
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)
