"""Pure sampling-based cardinality estimation.

The approach Deep Sketches build on and improve: evaluate each base
table's predicates against that table's materialized sample, take the
qualifying fraction as the selectivity, and scale the (exact,
precomputed) size of the unfiltered join by the product of the
selectivities.

Its documented weakness is the paper's "0-tuple situation": when no
sampled tuple qualifies, the estimator has no signal and must "fall back
to an 'educated' guess — causing large estimation errors".  The fallback
here assumes half a tuple qualified (selectivity ``0.5 / sample_rows``),
a standard smoothing choice; the zero-tuple benchmark shows how badly
this does against the learned sketch.
"""

from __future__ import annotations

from ..db.database import Database
from ..db.executor import execute_count, table_filter_mask
from ..sampling.sampler import MaterializedSamples, materialize_samples
from ..db.query import Query


class SamplingEstimator:
    """Per-table sample selectivities times the unfiltered join size."""

    name = "Sampling"

    def __init__(
        self,
        db: Database,
        samples: MaterializedSamples | None = None,
        sample_size: int = 1000,
        seed: int = 0,
    ):
        self.db = db
        self.samples = samples or materialize_samples(
            db, db.table_names(), sample_size, seed=seed
        )
        #: Exact sizes of unfiltered joins, keyed by the query skeleton.
        self._join_size_cache: dict[Query, int] = {}

    # ------------------------------------------------------------------
    def _skeleton(self, query: Query) -> Query:
        """The query with all predicates stripped (joins only)."""
        return Query(tables=query.tables, joins=query.joins, predicates=())

    def _unfiltered_join_size(self, query: Query) -> int:
        skeleton = self._skeleton(query)
        if skeleton not in self._join_size_cache:
            self._join_size_cache[skeleton] = execute_count(self.db, skeleton)
        return self._join_size_cache[skeleton]

    def table_selectivity(self, query: Query, alias: str) -> float:
        """Sample-estimated selectivity of one alias' predicates."""
        predicates = query.predicates_for(alias)
        if not predicates:
            return 1.0
        sample = self.samples.for_table(query.alias_table(alias))
        if sample.n_rows == 0:
            return 1.0
        qualifying = int(table_filter_mask(sample, predicates).sum())
        if qualifying == 0:
            # The 0-tuple situation: no signal left in the sample.
            return 0.5 / sample.n_rows
        return qualifying / sample.n_rows

    def estimate(self, query: Query) -> float:
        """Unfiltered join size scaled by sampled selectivities."""
        base = float(self._unfiltered_join_size(query))
        selectivity = 1.0
        for alias in query.aliases:
            selectivity *= self.table_selectivity(query, alias)
        return max(base * selectivity, 1.0)
