"""Exact COUNT(*) execution.

This module is the reproduction's stand-in for HyPer as the source of
**true cardinalities** (training labels and ground truth in the demo).
Two algorithms are implemented and cross-checked in the test suite:

* :func:`execute_counts` — the factorized counting core, for acyclic
  join graphs.  Rather than materializing join results (which explode
  for star joins over fact tables), it pushes *count messages* up a
  spanning tree of each connected component: each alias aggregates the
  product of its children's counts per join key, grouped by the key
  toward its parent.  This is the classic factorized / Yannakakis-style
  aggregation and is exact for COUNT(*) over acyclic equi-joins.
  Disconnected components multiply (cross product semantics).

* :func:`count_hash_join` — a general materializing pipeline of binary
  hash joins (with residual-edge filters for cyclic graphs).  Exact for
  any join graph, but memory scales with intermediate result sizes, so
  it serves as the fallback for cyclic queries and as the test oracle.

:func:`label_batch` labels a whole :class:`~repro.db.batch.QueryBatch`
(:func:`execute_counts` is a list of queries made into one).  It
validates each join structure once and each predicate once per distinct
(table, column, literal kind), then counts the queries per join
structure, with a memo for the call: one full-table row mask per
distinct ``(table, column, op, literal)``, one conjunction per
``(table, predicates)``, one slot space per join edge and one
spanning-tree plan per structure.  Each tree is counted for a chunk of
queries at once: an alias's distinct selections are evaluated once, a
leaf's message is one ``bincount`` row per distinct selection, and the
root multiplies its children's gathered rows per query; the chunk's
temporaries are bounded by ``_CHUNK_CELLS``.  Cyclic structures go to
:func:`count_hash_join`.  The same masks, gathered at a sample's row
ids, are the build's qualifying-sample bitmaps.  The memo is dropped
when the call returns, which keeps its memory bounded by one batch.
:func:`execute_count` is the same core over a batch of one.

Each tree is rooted at its hub (the alias with the most joins, ties to
the smaller table), so a star's fact tables become leaves.  A message
is a count vector over the edge's slot space (:class:`_Edge`): a
single-column integer key in ``[0, _DENSE_KEY_LIMIT)`` on both sides is
its own slot, and other keys (composite, negative, huge or float) are
coded into slots once per edge by ``np.unique`` over both columns.
Applying a message is one gather.  Counts are sums of integer-valued
float64 products, exact below 2**53.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import QueryError
from .batch import QueryBatch
from .database import Database
from .join_graph import Adjacency, PairJoin, build_join_graph
from .query import Predicate, Query
from .table import Table


# ----------------------------------------------------------------------
# predicate application
# ----------------------------------------------------------------------


def table_filter_mask(table: Table, predicates: list[Predicate]) -> np.ndarray:
    """Boolean mask of rows satisfying all ``predicates`` (conjunction)."""
    mask = np.ones(table.n_rows, dtype=bool)
    for pred in predicates:
        mask &= table.column(pred.column).evaluate(pred.op, pred.literal)
    return mask


def _filtered_rows(db: Database, query: Query, alias: str) -> tuple[Table, np.ndarray]:
    """(table, row indices passing the alias' local predicates)."""
    table = db.table(query.alias_table(alias))
    mask = table_filter_mask(table, query.predicates_for(alias))
    return table, np.flatnonzero(mask)


# ----------------------------------------------------------------------
# composite join keys
# ----------------------------------------------------------------------


def _key_arrays(
    table: Table, rows: np.ndarray, columns: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """(key matrix, validity) for ``rows`` over the join ``columns``.

    Rows with a NULL in any join column can never match and are flagged
    invalid.  Keys come back as an (n, k) int64/float64 matrix.
    """
    parts = []
    valid = np.ones(len(rows), dtype=bool)
    for name in columns:
        col = table.column(name)
        parts.append(col.values[rows].astype(np.float64, copy=False))
        valid &= col.valid[rows]
    return np.stack(parts, axis=1), valid


def _joint_codes(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map two key matrices into one shared integer code space.

    ``np.unique`` over the concatenation assigns consistent codes to
    equal composite keys on both sides, enabling bincount-based joins.
    """
    stacked = np.concatenate([left, right], axis=0)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return inverse[: len(left)], inverse[len(left) :]


# ----------------------------------------------------------------------
# factorized (acyclic) counting
# ----------------------------------------------------------------------

#: A single-column integer join key whose values lie in
#: ``[0, _DENSE_KEY_LIMIT)`` on both sides is its own message slot;
#: other keys are coded by ``np.unique`` over both columns, which is an
#: order of magnitude slower on the dense id domains of star schemas.
_DENSE_KEY_LIMIT = 8_000_000

#: Batch counting sizes its chunks of queries so that each chunk's
#: message rows and per-query row products stay under this many cells.
_CHUNK_CELLS = 1 << 20


class _Edge:
    """One tree edge: a slot space that child and parent rows share.

    ``slots[i]`` is where child row ``i`` counts in a message toward the
    parent, ``index[j]`` the slot parent row ``j`` reads; rows with equal
    join keys share a slot.  ``width`` slots: a child row with a NULL
    key, or a key no parent row holds, counts in slot ``width - 1``,
    which no parent row reads, and a parent row with a NULL key reads
    slot ``width - 2``, which no child row writes.
    """

    __slots__ = ("columns", "parent_columns", "dense", "slots", "index", "width")

    def __init__(self, columns, parent_columns, dense: bool, slots, index, width: int):
        self.columns, self.parent_columns = columns, parent_columns
        #: Whether the keys are their own slots (else ``np.unique`` codes).
        self.dense = dense
        self.slots, self.index, self.width = slots, index, width


class _Step:
    """One alias of a rooted tree, visited after all of its children."""

    __slots__ = ("alias", "table", "up", "children")

    def __init__(self, alias: str, table: str, up: _Edge | None, children):
        self.alias = alias
        self.table = table
        self.up = up  # edge to the parent; ``None`` at the root
        self.children: list[tuple[str, _Edge]] = children


class _CountMemo:
    """The factorized counting core and its memo over one batch.

    Every entry is a pure function of the (immutable) database and its
    key, so reuse never changes a count.  Memoized arrays are shared
    between queries and are never written after they are stored.
    """

    def __init__(self, db: Database):
        self.db = db
        self._masks: dict[tuple, np.ndarray] = {}
        self._selections: dict[tuple, np.ndarray | None] = {}
        self._edges: dict[tuple, _Edge] = {}
        self._plans: dict[tuple, list[list[_Step]] | None] = {}

    # -- predicates ----------------------------------------------------
    def _selection(self, table: str, predicates: tuple) -> np.ndarray | None:
        """Rows passing all ``predicates`` (``(column, op, literal)``
        keys) as a mask; ``None`` = every row."""
        if not predicates:
            return None
        key = (table, predicates)
        if key in self._selections:
            return self._selections[key]
        mask = None
        for column, op, literal in predicates:
            pred_key = (table, column, op, literal)
            pred_mask = self._masks.get(pred_key)
            if pred_mask is None:
                pred_mask = self._masks[pred_key] = (
                    self.db.table(table).column(column).evaluate(op, literal)
                )
            mask = pred_mask if mask is None else mask & pred_mask
        self._selections[key] = mask
        return mask

    # -- plans ---------------------------------------------------------
    def _edge(self, table: str, columns: list[str], parent: str, parent_columns: list[str]) -> _Edge:
        """The memoized slot space of the join ``table.columns =
        parent.parent_columns``."""
        key = (table, tuple(columns), parent, tuple(parent_columns))
        edge = self._edges.get(key)
        if edge is not None:
            return edge
        child_col = self.db.table(table).column(columns[0])
        parent_col = self.db.table(parent).column(parent_columns[0])
        child_range = _dense_range(child_col) if len(columns) == 1 else None
        parent_range = _dense_range(parent_col) if child_range else None
        dense = parent_range is not None
        if dense:
            high = parent_range[1]
            keys, valid = child_col.values, child_col.valid
            if child_range[1] <= high and valid.all():
                slots = keys  # every key is its own slot
            else:
                slots = np.where(valid & (keys <= high), keys, high + 2)
            index = parent_col.values
            if not parent_col.valid.all():
                index = np.where(parent_col.valid, index, high + 1)
            width = high + 3
        else:
            child_table, parent_table = self.db.table(table), self.db.table(parent)
            child_keys, child_valid = _key_arrays(
                child_table, np.arange(child_table.n_rows), columns
            )
            parent_keys, parent_valid = _key_arrays(
                parent_table, np.arange(parent_table.n_rows), parent_columns
            )
            child_codes, parent_codes = _joint_codes(child_keys, parent_keys)
            codes = int(max(child_codes.max(initial=-1), parent_codes.max(initial=-1))) + 1
            slots = np.where(child_valid, child_codes, codes + 1)
            index = np.where(parent_valid, parent_codes, codes)
            width = codes + 2
        edge = self._edges[key] = _Edge(
            tuple(columns), tuple(parent_columns), dense, slots, index, width
        )
        return edge

    def _plan(self, query: Query) -> list[list[_Step]] | None:
        """Each component's tree in post-order, or ``None`` if cyclic."""
        key = (query.tables, query.joins)
        if key in self._plans:
            return self._plans[key]
        graph = build_join_graph(query)
        plan = None
        if graph.acyclic:
            tables = {ref.alias: ref.table for ref in query.tables}
            plan = [
                self._tree(graph.adjacency, tables, component)
                for component in graph.components
            ]
        self._plans[key] = plan
        return plan

    def _tree(
        self, adjacency: Adjacency, tables: dict[str, str], component: list[str]
    ) -> list[_Step]:
        """Post-order steps of ``component`` rooted at its hub."""
        root = min(
            component,
            key=lambda a: (-len(adjacency[a]), self.db.table(tables[a]).n_rows, a),
        )
        up: dict[str, _Edge | None] = {root: None}
        children: dict[str, list[tuple[str, _Edge]]] = {}
        order, stack = [], [root]
        while stack:
            alias = stack.pop()
            order.append(alias)
            children[alias] = []
            for neighbor, pair in adjacency[alias]:
                if neighbor in up:
                    continue
                own, theirs = pair.sides_for(neighbor)
                edge = self._edge(tables[neighbor], own, tables[alias], theirs)
                up[neighbor] = edge
                children[alias].append((neighbor, edge))
                stack.append(neighbor)
        return [_Step(a, tables[a], up[a], children[a]) for a in reversed(order)]

    # -- validation ----------------------------------------------------
    def validate(self, batch: QueryBatch) -> None:
        """:meth:`Query.validate` for a whole batch: each structure once,
        each predicate once per distinct (table, column, literal kind)."""
        for structure in batch.structures:
            structure.validate(self.db)
        tables = [{ref.alias: ref.table for ref in s.tables} for s in batch.structures]
        structure_of = batch.structure.tolist()
        seen = set()
        for q, alias, column, op, literal in zip(
            batch.query.tolist(), batch.alias, batch.column, batch.op, batch.literal
        ):
            table_name = tables[structure_of[q]].get(alias)
            members = literal if op == "in" else (literal,)
            key = (table_name, column, op == "in", tuple(type(m) for m in members))
            if key in seen:
                continue
            seen.add(key)
            if table_name is None:
                raise QueryError(f"unknown alias {alias!r}")
            table = self.db.table(table_name)
            if not table.schema.has_column(column):
                pred = Predicate(alias, column, op, literal)
                raise QueryError(
                    f"predicate {pred}: table {table.name!r} has no column {column!r}"
                )
            # encode_literal raises QueryError on type mismatch.
            for member in members:
                table.column(column).encode_literal(member)

    # -- counting ------------------------------------------------------
    def count_batch(self, batch: QueryBatch, selections: list[dict]) -> list[int]:
        """COUNT(*) of every query of ``batch``, whose
        :meth:`~repro.db.batch.QueryBatch.selections` are ``selections``.

        Queries are counted per join structure: one plan each, every
        tree for a chunk of queries at once (:meth:`_tree_counts`), and
        cyclic structures by hash join.
        """
        counts = [0] * len(batch)
        order = np.argsort(batch.structure, kind="stable")
        starts = np.flatnonzero(np.diff(batch.structure[order])) + 1
        for group in np.split(order, starts) if order.size else ():
            structure = batch.structures[int(batch.structure[group[0]])]
            group = group.tolist()
            plan = self._plan(structure)
            if plan is None:
                for q, query in zip(group, batch.take(group).to_queries()):
                    counts[q] = count_hash_join(self.db, query)
                continue
            totals = [1] * len(group)
            for steps in plan:
                tree = self._tree_counts(steps, [selections[q] for q in group])
                totals = [total * count for total, count in zip(totals, tree)]
            for q, total in zip(group, totals):
                counts[q] = total
        return counts

    def _tree_counts(self, steps: list[_Step], selections: list[dict]) -> list[int]:
        """One tree's count for each query, in chunks of queries whose
        message rows and row products stay under ``_CHUNK_CELLS``."""
        widest = max(
            max(self.db.table(step.table).n_rows, 0 if step.up is None else step.up.width)
            for step in steps
        )
        chunk = max(1, _CHUNK_CELLS // max(widest, 1))
        counts: list[int] = []
        for start in range(0, len(selections), chunk):
            counts += self._chunk_counts(steps, selections[start : start + chunk])
        return counts

    def _chunk_counts(self, steps: list[_Step], selections: list[dict]) -> list[int]:
        """Count messages up the tree for a chunk of queries.

        Each alias aggregates, per slot toward its parent, the product of
        its children's counts over its selected rows (a leaf: one per
        selected row); the root sums that product over its selected
        rows.  An alias's distinct selections are evaluated once, and a
        leaf's message is one ``bincount`` row per distinct selection.
        Counts are sums of integer-valued float64 products, exact below
        2**53.
        """
        messages: dict[str, tuple[np.ndarray, list[int]]] = {}
        for step in steps:
            distinct: dict[tuple, int] = {}
            which = [distinct.setdefault(sel.get(step.alias, ()), len(distinct)) for sel in selections]
            masks = [self._selection(step.table, preds) for preds in distinct]
            edge = step.up
            if not step.children:
                if edge is None:  # a lone alias
                    n_rows = self.db.table(step.table).n_rows
                    sizes = [n_rows if m is None else int(np.count_nonzero(m)) for m in masks]
                    return [sizes[d] for d in which]
                message = np.empty((len(masks), edge.width))
                for row, mask in zip(message, masks):
                    if mask is None:
                        row[:] = np.bincount(edge.slots, minlength=edge.width)
                    elif 4 * np.count_nonzero(mask) < mask.size:  # sparse: gather
                        row[:] = np.bincount(edge.slots[np.flatnonzero(mask)], minlength=edge.width)
                    else:  # dense: weigh every row by its bit
                        row[:] = np.bincount(edge.slots, weights=mask, minlength=edge.width)
                messages[step.alias] = (message, which)
                continue
            # Each child's message rows gathered at this alias's rows, once
            # per distinct message; then per query, the product of its
            # rows, restricted to its selection.
            factors = []
            for child, child_edge in step.children:
                message, child_which = messages.pop(child)
                factors.append(([row.take(child_edge.index) for row in message], child_which))
            (rows, first), *rest = factors
            selected = [None if m is None else m.astype(np.float64) for m in masks]
            counts: list[int] = []
            if edge is not None:
                message = np.empty((len(selections), edge.width))
            for q, d in enumerate(which):
                product = rows[first[q]]
                for others, child_which in rest:
                    product = product * others[child_which[q]]
                sel = selected[d]
                if edge is None:
                    counts.append(int(round(product.sum() if sel is None else np.dot(product, sel))))
                else:
                    weights = product if sel is None else product * sel
                    message[q] = np.bincount(edge.slots, weights=weights, minlength=edge.width)
            if edge is None:
                return counts
            messages[step.alias] = (message, list(range(len(selections))))
        raise AssertionError("unreachable: the root is the last step")

    def sample_bitmaps(
        self,
        batch: QueryBatch,
        selections: list[dict],
        sample_rows: Mapping[str, np.ndarray],
        width: int,
    ) -> np.ndarray:
        """Every table-set row's qualifying-sample bitmap, ``(rows, width)``.

        One row per query and table of its structure (canonical order,
        :meth:`~repro.db.batch.QueryBatch.table_offsets`): the alias's
        full-table selection mask gathered at the table's sampled row
        ids ``sample_rows[table]``, zero-padded to ``width``.
        """
        distinct: dict[tuple, int] = {}
        row_ids = []
        for q, sid in enumerate(batch.structure.tolist()):
            sel = selections[q]
            for ref in batch.structures[sid].tables:
                key = (ref.table, sel.get(ref.alias, ()))
                row_ids.append(distinct.setdefault(key, len(distinct)))
        bitmaps = np.zeros((len(distinct), width), dtype=bool)
        for i, (table, preds) in enumerate(distinct):
            rows = sample_rows[table]
            mask = self._selection(table, preds)
            bitmaps[i, : rows.size] = True if mask is None else mask[rows]
        return bitmaps[np.asarray(row_ids, dtype=np.int64)]


def _dense_range(column) -> tuple[int, int] | None:
    """(low, high) of an integer column's non-NULL values when they lie in
    ``[0, _DENSE_KEY_LIMIT)`` (an empty column reads ``(0, -1)``), else
    ``None``."""
    if column.values.dtype.kind != "i":
        return None
    present = column.values if column.valid.all() else column.values[column.valid]
    low = int(present.min()) if present.size else 0
    high = int(present.max()) if present.size else -1
    return (low, high) if 0 <= low and high < _DENSE_KEY_LIMIT else None


def label_batch(
    db: Database,
    batch: QueryBatch,
    sample_rows: Mapping[str, np.ndarray] | None = None,
    width: int = 0,
) -> tuple[list[int], np.ndarray | None]:
    """Exact ``SELECT COUNT(*)`` of every query of ``batch``, in order,
    plus, given ``sample_rows`` (table -> sampled row ids), every
    table-set row's sample bitmap (:meth:`_CountMemo.sample_bitmaps`),
    gathered from the same masks the counts used.

    One memo serves the call (see the module docstring); cyclic queries
    fall back to :func:`count_hash_join`.  An invalid query raises
    :class:`~repro.errors.QueryError` before anything is counted.
    """
    memo = _CountMemo(db)
    memo.validate(batch)
    selections = batch.selections()
    counts = memo.count_batch(batch, selections)
    if sample_rows is None:
        return counts, None
    return counts, memo.sample_bitmaps(batch, selections, sample_rows, width)


def execute_counts(db: Database, queries: Sequence[Query]) -> list[int]:
    """Exact ``SELECT COUNT(*)`` of every query, in order: the queries
    as one :class:`~repro.db.batch.QueryBatch` through :func:`label_batch`."""
    return label_batch(db, QueryBatch.from_queries(queries))[0]


# ----------------------------------------------------------------------
# materializing hash join (general fallback and test oracle)
# ----------------------------------------------------------------------


def count_hash_join(db: Database, query: Query, max_intermediate: int = 50_000_000) -> int:
    """Exact COUNT(*) by materializing row-index tuples join by join.

    Handles arbitrary (including cyclic) join graphs: a spanning tree is
    joined pair by pair, then residual edges are applied as filters.
    ``max_intermediate`` guards against runaway intermediate results.
    """
    graph = build_join_graph(query)
    total = 1
    for component in graph.components:
        count = _hash_join_component(
            db, query, graph.adjacency, sorted(component), max_intermediate
        )
        if count == 0:
            return 0
        total *= count
    return int(total)


def _hash_join_component(
    db: Database, query: Query, adjacency: Adjacency, aliases: list[str], max_intermediate: int
) -> int:
    tables: dict[str, Table] = {}
    rows: dict[str, np.ndarray] = {}
    for alias in aliases:
        tables[alias], rows[alias] = _filtered_rows(db, query, alias)
        if len(rows[alias]) == 0:
            return 0

    # Current materialization: alias -> positions into rows[alias], all
    # arrays share one length (the number of intermediate tuples).
    start = aliases[0]
    current: dict[str, np.ndarray] = {start: np.arange(len(rows[start]))}
    joined = {start}
    remaining_edges = {
        frozenset((alias, neighbor)): pair
        for alias in aliases
        for neighbor, pair in adjacency[alias]
    }

    while len(joined) < len(aliases):
        # Pick any edge connecting the joined region to a new alias.
        pick: tuple[frozenset, PairJoin] | None = None
        for key, pair in remaining_edges.items():
            a, b = tuple(key)
            if (a in joined) != (b in joined):
                pick = (key, pair)
                break
        if pick is None:
            raise QueryError("join graph component is not connected")
        key, pair = pick
        del remaining_edges[key]
        inner = pair.alias_a if pair.alias_a in joined else pair.alias_b
        outer = pair.other(inner)

        inner_cols, outer_cols = pair.sides_for(inner)
        inner_keys, inner_valid = _key_arrays(
            tables[inner], rows[inner][current[inner]], inner_cols
        )
        outer_keys, outer_valid = _key_arrays(tables[outer], rows[outer], outer_cols)

        inner_codes, outer_codes = _joint_codes(inner_keys, outer_keys)
        inner_codes = np.where(inner_valid, inner_codes, -1)
        outer_codes = np.where(outer_valid, outer_codes, -2)

        # Sort the outer side by code, then locate each inner tuple's
        # matching segment with binary search.
        order = np.argsort(outer_codes, kind="stable")
        sorted_codes = outer_codes[order]
        seg_start = np.searchsorted(sorted_codes, inner_codes, side="left")
        seg_end = np.searchsorted(sorted_codes, inner_codes, side="right")
        counts = seg_end - seg_start
        total = int(counts.sum())
        if total == 0:
            return 0
        if total > max_intermediate:
            raise QueryError(
                f"hash join intermediate of {total} tuples exceeds the "
                f"{max_intermediate} limit"
            )

        expand = np.repeat(np.arange(len(counts)), counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        outer_positions = order[seg_start[expand] + within]

        current = {alias: positions[expand] for alias, positions in current.items()}
        current[outer] = outer_positions
        joined.add(outer)

    # Residual (cycle-closing) edges become filters over the tuples.
    n_tuples = len(next(iter(current.values())))
    keep = np.ones(n_tuples, dtype=bool)
    for pair in remaining_edges.values():
        a, b = pair.alias_a, pair.alias_b
        cols_a, cols_b = pair.sides_for(a)
        keys_a, valid_a = _key_arrays(tables[a], rows[a][current[a]], cols_a)
        keys_b, valid_b = _key_arrays(tables[b], rows[b][current[b]], cols_b)
        keep &= valid_a & valid_b & np.all(keys_a == keys_b, axis=1)
    return int(keep.sum())


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def execute_count(db: Database, query: Query) -> int:
    """Exact result size of ``SELECT COUNT(*)`` for ``query`` on ``db``:
    :func:`execute_counts` over a batch of one (factorized when acyclic,
    else hash join)."""
    return execute_counts(db, [query])[0]
