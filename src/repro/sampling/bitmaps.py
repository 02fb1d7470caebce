"""Qualifying-sample bitmaps.

"In addition to executing a training query against the full database, we
execute each base table selection against a set of materialized samples
... Thus, we derive bitmaps indicating qualifying samples for each base
table.  These bitmaps are then used as an additional input to the deep
learning model."  (paper, Section 2)

A bitmap for alias ``a`` has one bit per sample row of ``a``'s table; a
bit is set when the row satisfies *all* of the query's predicates on
``a``.  Joins are deliberately not executed against samples — only base
table selections are, exactly as in the reference implementation.

For batched estimation (:func:`batch_bitmaps`) the predicate masks are
memoized per distinct ``(table, column, op, literal)``: a serving batch
routinely repeats literals (and whole selections) across queries, so
each distinct predicate is evaluated against the sample exactly once
and the combined per-alias bitmaps are shared across the batch.  The
produced bitmaps are bit-identical to :func:`query_bitmaps`' — batching
is a throughput optimization, never a semantic change.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache import LRUCache
from ..db.query import Predicate, Query
from ..db.executor import table_filter_mask
from .sampler import MaterializedSamples


def alias_bitmap(
    samples: MaterializedSamples, query: Query, alias: str
) -> np.ndarray:
    """Bitmap (length ``sample_size``, zero-padded) for one alias."""
    table = samples.for_table(query.alias_table(alias))
    mask = table_filter_mask(table, query.predicates_for(alias))
    if len(mask) < samples.sample_size:
        padded = np.zeros(samples.sample_size, dtype=bool)
        padded[: len(mask)] = mask
        return padded
    return mask


def query_bitmaps(samples: MaterializedSamples, query: Query) -> dict[str, np.ndarray]:
    """Bitmaps for every alias of ``query``, keyed by alias."""
    return {alias: alias_bitmap(samples, query, alias) for alias in query.aliases}


class PredicateMaskMemo:
    """Memo of predicate and combined-selection masks over one sample set.

    Two levels are memoized:

    * per-predicate masks, keyed by ``(table, column, op, literal)`` —
      one :meth:`Column.evaluate` per distinct predicate per batch;
    * combined per-selection bitmaps (already zero-padded to the nominal
      sample size), keyed by ``(table, predicates)`` — queries repeating
      a whole base-table selection share one array.

    The memo may outlive a single batch (the serving engine keeps one
    per sketch), because sample tables are immutable once materialized.
    Both levels are LRU-bounded so a long-running server fed a templated
    workload with ever-changing literals cannot grow memory without
    limit (each entry is a sample-sized bool array).
    """

    def __init__(self, samples: MaterializedSamples, maxsize: int = 8192):
        import threading

        self._samples = samples
        self._predicate_masks = LRUCache(maxsize=maxsize)
        self._selection_bitmaps = LRUCache(maxsize=maxsize)
        self.evaluations = 0  # distinct predicate evaluations performed
        # The backing caches are internally locked, but this diagnostic
        # counter is a read-modify-write of its own: serving executors
        # may evaluate chunks of one sketch from several threads.
        self._eval_lock = threading.Lock()

    def predicate_mask(self, table_name: str, pred: Predicate) -> np.ndarray:
        key = (table_name, pred.column, pred.op, pred.literal)
        mask = self._predicate_masks.get(key)
        if mask is None:
            table = self._samples.for_table(table_name)
            mask = table.column(pred.column).evaluate(pred.op, pred.literal)
            self._predicate_masks.put(key, mask)
            with self._eval_lock:
                self.evaluations += 1
        return mask

    def selection_bitmap(
        self, table_name: str, predicates: Sequence[Predicate]
    ) -> np.ndarray:
        key = (table_name, tuple(predicates))
        bitmap = self._selection_bitmaps.get(key)
        if bitmap is None:
            if len(predicates) == 1:
                # Read-only like every bitmap here, so a one-predicate
                # selection shares its predicate's cached mask.
                mask = self.predicate_mask(table_name, predicates[0])
            else:
                table = self._samples.for_table(table_name)
                mask = np.ones(table.n_rows, dtype=bool)
                for pred in predicates:
                    mask = mask & self.predicate_mask(table_name, pred)
            if len(mask) < self._samples.sample_size:
                padded = np.zeros(self._samples.sample_size, dtype=bool)
                padded[: len(mask)] = mask
                mask = padded
            bitmap = mask
            self._selection_bitmaps.put(key, bitmap)
        return bitmap


def batch_bitmaps(
    samples: MaterializedSamples,
    queries: Sequence[Query],
    memo: PredicateMaskMemo | None = None,
) -> list[dict[str, np.ndarray]]:
    """Per-query alias bitmaps for a whole batch, sharing predicate work.

    Returns one ``{alias: bitmap}`` dict per query, in order, with
    arrays identical to what :func:`query_bitmaps` would produce.
    Bitmaps are shared (not copied) between queries with equal
    selections; callers must treat them as read-only, which every
    consumer in this repository does (the featurizer copies on concat).
    Pass a :class:`PredicateMaskMemo` to reuse mask work across batches.
    """
    memo = memo if memo is not None else PredicateMaskMemo(samples)
    out: list[dict[str, np.ndarray]] = []
    for query in queries:
        out.append(
            {
                alias: memo.selection_bitmap(
                    query.alias_table(alias), query.predicates_for(alias)
                )
                for alias in query.aliases
            }
        )
    return out


def qualifying_fractions(samples: MaterializedSamples, query: Query) -> dict[str, float]:
    """Fraction of *sampled* rows qualifying per alias.

    The denominator is the actual sample length (not the padded size), so
    fractions are unbiased selectivity estimates for each base table.
    """
    out: dict[str, float] = {}
    for alias in query.aliases:
        table = samples.for_table(query.alias_table(alias))
        mask = table_filter_mask(table, query.predicates_for(alias))
        out[alias] = float(mask.mean()) if len(mask) else 0.0
    return out


def is_zero_tuple(samples: MaterializedSamples, query: Query) -> bool:
    """True when some base-table selection matches no sampled tuple.

    These are the "0-tuple situations" of the paper: pure sampling-based
    estimators lose all signal and must fall back to an educated guess.
    Only aliases that actually carry predicates are considered (an
    unfiltered table always qualifies its whole sample).
    """
    for alias in query.aliases:
        if not query.predicates_for(alias):
            continue
        table = samples.for_table(query.alias_table(alias))
        mask = table_filter_mask(table, query.predicates_for(alias))
        if not mask.any():
            return True
    return False
