"""A batch of queries as parallel arrays.

The sketch build (paper Figure 1a) handles a thousand or more generated
queries at once: it labels them, gathers their sample bitmaps and
featurizes them.  :class:`QueryBatch` holds such a workload column-wise,
so each stage works on arrays and per-structure groups instead of on
:class:`~repro.db.query.Query` objects:

* ``structures`` — the batch's distinct join structures, each a
  predicate-free :class:`~repro.db.query.Query` (tables and joins,
  canonically sorted), and ``structure`` — the structure id of every
  query;
* one row per predicate: ``query`` (the query it belongs to, non-
  decreasing), ``alias``, ``column``, ``op`` and ``literal``, in each
  query's canonical predicate order.

:meth:`QueryBatch.to_queries` and :meth:`QueryBatch.from_queries`
convert losslessly in both directions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .query import Predicate, Query


def segment_rows(offsets: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row numbers of segments ``index`` of a segmented array, in order.

    Segment ``i`` holds rows ``offsets[i]:offsets[i + 1]``; the result
    concatenates the selected segments' row ranges.
    """
    index = np.asarray(index, dtype=np.int64)
    starts = offsets[index]
    counts = offsets[index + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


def offsets_of(counts) -> np.ndarray:
    """Segment offsets (n + 1,) of segments with these row counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class QueryBatch:
    """Queries as a structure id each plus one row per predicate."""

    __slots__ = (
        "structures", "structure", "query", "alias", "column", "op", "literal",
        "offsets",
    )

    def __init__(
        self,
        structures: Sequence[Query],
        structure: np.ndarray,
        query: np.ndarray,
        alias: list[str],
        column: list[str],
        op: list[str],
        literal: list,
    ):
        self.structures = tuple(structures)
        self.structure = np.asarray(structure, dtype=np.int64)
        self.query = np.asarray(query, dtype=np.int64)
        self.alias, self.column, self.op, self.literal = alias, column, op, literal
        #: Predicate rows of query ``i``: ``offsets[i]:offsets[i + 1]``.
        self.offsets = offsets_of(np.bincount(self.query, minlength=len(self.structure)))

    def __len__(self) -> int:
        return len(self.structure)

    @classmethod
    def from_queries(cls, queries: Sequence[Query]) -> "QueryBatch":
        ids: dict[tuple, int] = {}
        structures: list[Query] = []
        structure, query, alias, column, op, literal = [], [], [], [], [], []
        for i, q in enumerate(queries):
            key = (q.tables, q.joins)
            sid = ids.get(key)
            if sid is None:
                sid = ids[key] = len(structures)
                structures.append(Query(tables=q.tables, joins=q.joins))
            structure.append(sid)
            for pred in q.predicates:
                query.append(i)
                alias.append(pred.alias)
                column.append(pred.column)
                op.append(pred.op)
                literal.append(pred.literal)
        return cls(structures, structure, query, alias, column, op, literal)

    def to_queries(self) -> list[Query]:
        out = []
        offsets = self.offsets.tolist()
        for i, sid in enumerate(self.structure.tolist()):
            base = self.structures[sid]
            predicates = tuple(
                Predicate(self.alias[r], self.column[r], self.op[r], self.literal[r])
                for r in range(offsets[i], offsets[i + 1])
            )
            out.append(Query(tables=base.tables, joins=base.joins, predicates=predicates))
        return out

    def take(self, index) -> "QueryBatch":
        """Queries ``index`` (in that order) as a new batch, which keeps
        only the structures they use."""
        index = np.asarray(index, dtype=np.int64)
        rows = segment_rows(self.offsets, index).tolist()
        counts = self.offsets[index + 1] - self.offsets[index]
        used, structure = np.unique(self.structure[index], return_inverse=True)
        return QueryBatch(
            [self.structures[s] for s in used.tolist()],
            structure,
            np.repeat(np.arange(index.size), counts),
            [self.alias[r] for r in rows],
            [self.column[r] for r in rows],
            [self.op[r] for r in rows],
            [self.literal[r] for r in rows],
        )

    def table_offsets(self) -> np.ndarray:
        """Offsets (n + 1,) of every query's table-set rows: one row per
        table of its structure, the structures' canonical order."""
        sizes = np.array([len(s.tables) for s in self.structures], dtype=np.int64)
        return offsets_of(sizes[self.structure])

    def selections(self) -> list[dict[str, tuple]]:
        """Per query: alias -> its ``(column, op, literal)`` predicate
        keys in canonical order (aliases without predicates absent)."""
        out: list[dict[str, tuple]] = [{} for _ in range(len(self))]
        for r, q in enumerate(self.query.tolist()):
            out[q].setdefault(self.alias[r], []).append(
                (self.column[r], self.op[r], self.literal[r])
            )
        for per_query in out:
            for alias, keys in per_query.items():
                per_query[alias] = tuple(keys)
        return out
