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

:func:`execute_counts` labels a whole batch.  Within one call it keeps
a memo, keyed like :class:`~repro.sampling.bitmaps.PredicateMaskMemo`:
one row mask per ``(table, column, op, literal)``, one conjunction per
``(table, predicates)``, one leaf message per ``(table, predicates,
join columns)``, and one spanning-tree plan per join structure.  A
training workload repeats all of these across queries, so each is
computed once per call.  The memo is dropped when the call returns,
which keeps its memory bounded by one batch.  :func:`execute_count`
and :func:`count_factorized` are the same core over a batch of one.

Each tree is rooted at its hub (the alias with the most joins, ties to
the smaller table), so a star's fact tables become leaves whose
unfiltered messages the memo shares.  Single-column join keys whose
values lie in ``[0, _DENSE_KEY_LIMIT)`` travel as dense count vectors
sized to the parent key column, with NULL parent keys pointed at a slot
that is always zero; applying one is a single gather.  Composite and
other keys take the sparse ``np.unique`` path.  Counts are sums of
integer-valued float64 products, exact below 2**53.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import QueryError
from .database import Database
from .join_graph import Adjacency, PairJoin, build_join_graph
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .query import Predicate, Query


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

#: Dense count vectors are used when a single-column integer join key
#: falls in ``[0, _DENSE_KEY_LIMIT)`` on both sides — bincount beats
#: sort-based np.unique by an order of magnitude on the dense id
#: domains of star schemas.
_DENSE_KEY_LIMIT = 8_000_000


class _DenseKey:
    """A dense-eligible join key column of one table.

    ``index`` maps each row to its message slot: the key itself, or
    ``high + 1`` (a slot no valid key reaches) for a NULL key.
    """

    __slots__ = ("values", "index", "high")

    def __init__(self, values: np.ndarray, index: np.ndarray, high: int):
        self.values = values
        self.index = index
        self.high = high


class _Sparse:
    """A count message over composite keys: unique key matrix -> count."""

    __slots__ = ("keys", "counts")

    def __init__(self, keys: np.ndarray, counts: np.ndarray):
        self.keys = keys
        self.counts = counts


class _Edge:
    """One tree edge, seen from the child: its columns and the parent's."""

    __slots__ = ("table", "columns", "parent_table", "parent_columns", "dense")

    def __init__(self, table, columns, parent_table, parent_columns, dense):
        self.table = table
        self.columns = columns
        self.parent_table = parent_table
        self.parent_columns = parent_columns
        #: (child key, parent key) when both sides are dense-eligible.
        self.dense: tuple[_DenseKey, _DenseKey] | None = dense


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
        self._rows: dict[tuple, np.ndarray | None] = {}
        self._leaves: dict[tuple, np.ndarray | _Sparse] = {}
        self._keys: dict[tuple[str, str], _DenseKey | None] = {}
        self._plans: dict[tuple, list[list[_Step]] | None] = {}

    # -- predicates ----------------------------------------------------
    def _selection(self, table: str, predicates: tuple) -> np.ndarray | None:
        """Rows passing all ``predicates`` as a mask; ``None`` = every row."""
        if not predicates:
            return None
        key = (table, predicates)
        if key in self._selections:
            return self._selections[key]
        mask = None
        for pred in predicates:
            pred_key = (table, pred.column, pred.op, pred.literal)
            pred_mask = self._masks.get(pred_key)
            if pred_mask is None:
                column = self.db.table(table).column(pred.column)
                pred_mask = self._masks[pred_key] = column.evaluate(pred.op, pred.literal)
            mask = pred_mask if mask is None else mask & pred_mask
        self._selections[key] = mask
        return mask

    def _selected_rows(
        self, table: str, predicates: tuple, key_column: str | None
    ) -> np.ndarray | None:
        """Indices of rows passing ``predicates`` whose ``key_column`` is
        not NULL (such rows can never join their parent); ``None`` when
        that is every row."""
        key = (table, predicates, key_column)
        if key in self._rows:
            return self._rows[key]
        mask = self._selection(table, predicates)
        if key_column is not None:
            valid = self.db.table(table).column(key_column).valid
            if not valid.all():
                mask = valid if mask is None else mask & valid
        rows = None if mask is None else np.flatnonzero(mask)
        self._rows[key] = rows
        return rows

    # -- plans ---------------------------------------------------------
    def _dense_key(self, table: str, columns: list[str]) -> _DenseKey | None:
        """The memoized dense view of a single-column int key, or ``None``."""
        if len(columns) != 1:
            return None
        key = (table, columns[0])
        if key not in self._keys:
            col = self.db.table(table).column(columns[0])
            self._keys[key] = None
            if col.values.dtype.kind == "i":
                all_valid = bool(col.valid.all())
                present = col.values if all_valid else col.values[col.valid]
                low = int(present.min()) if present.size else 0
                high = int(present.max()) if present.size else -1
                if 0 <= low and high < _DENSE_KEY_LIMIT:
                    index = (
                        col.values if all_valid
                        else np.where(col.valid, col.values, high + 1)
                    )
                    self._keys[key] = _DenseKey(col.values, index, high)
        return self._keys[key]

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
                child_key = self._dense_key(tables[neighbor], own)
                parent_key = self._dense_key(tables[alias], theirs)
                dense = (
                    (child_key, parent_key)
                    if child_key is not None and parent_key is not None
                    else None
                )
                edge = _Edge(tables[neighbor], tuple(own), tables[alias], tuple(theirs), dense)
                up[neighbor] = edge
                children[alias].append((neighbor, edge))
                stack.append(neighbor)
        return [_Step(a, tables[a], up[a], children[a]) for a in reversed(order)]

    # -- counting ------------------------------------------------------
    def count(self, query: Query) -> int | None:
        """COUNT(*) of an acyclic ``query``; ``None`` when it is cyclic."""
        plan = self._plan(query)
        if plan is None:
            return None
        predicates: dict[str, list[Predicate]] = {}
        for pred in query.predicates:
            predicates.setdefault(pred.alias, []).append(pred)
        total = 1
        for steps in plan:
            count = self._tree_count(steps, predicates)
            if count == 0:
                return 0
            total *= count
        return int(total)

    def _tree_count(self, steps: list[_Step], predicates: dict) -> int:
        messages: dict[str, np.ndarray | _Sparse] = {}
        for step in steps:
            preds = tuple(predicates.get(step.alias, ()))
            edge = step.up
            if not step.children:
                if edge is None:  # a lone alias
                    mask = self._selection(step.table, preds)
                    if mask is None:
                        return self.db.table(step.table).n_rows
                    return int(np.count_nonzero(mask))
                leaf_key = (
                    step.table, preds, edge.columns, edge.parent_table, edge.parent_columns
                )
                message = self._leaves.get(leaf_key)
                if message is None:
                    rows = self._selected_rows(step.table, preds, self._null_key(edge))
                    message = self._leaves[leaf_key] = self._message(edge, rows, None)
                messages[step.alias] = message
                continue
            rows = self._selected_rows(
                step.table, preds, None if edge is None else self._null_key(edge)
            )
            multiplicity = None
            for child, child_edge in step.children:
                counts = self._apply(child_edge, rows, messages.pop(child))
                if multiplicity is None:
                    multiplicity = counts
                else:
                    multiplicity *= counts
            if edge is None:
                return int(round(multiplicity.sum()))
            messages[step.alias] = self._message(edge, rows, multiplicity)
        raise AssertionError("unreachable: the root is the last step")

    @staticmethod
    def _null_key(edge: _Edge) -> str | None:
        """The one key column whose NULL rows are dropped before a
        message is built; composite keys drop theirs while building."""
        return edge.columns[0] if len(edge.columns) == 1 else None

    def _message(
        self, edge: _Edge, rows: np.ndarray | None, multiplicity: np.ndarray | None
    ) -> np.ndarray | _Sparse:
        """Aggregate ``multiplicity`` (1 per row if ``None``) by the key
        toward the parent."""
        if edge.dense is not None:
            child_key, parent_key = edge.dense
            keys = child_key.values if rows is None else child_key.values[rows]
            if child_key.high > parent_key.high:
                # Keys the parent never holds would land past its slots.
                keep = keys <= parent_key.high
                keys = keys[keep]
                if multiplicity is not None:
                    multiplicity = multiplicity[keep]
            message = np.bincount(keys, weights=multiplicity, minlength=parent_key.high + 2)
            # Unweighted (and empty weighted) counts come back as int64.
            return message.astype(np.float64, copy=False)
        table = self.db.table(edge.table)
        if rows is None:
            rows = np.arange(table.n_rows)
        if multiplicity is None:
            multiplicity = np.ones(len(rows))
        keys, valid = _key_arrays(table, rows, edge.columns)
        keep = valid & (multiplicity > 0)
        keys = keys[keep]
        if len(keys) == 0:
            return _Sparse(np.empty((0, len(edge.columns))), np.empty(0))
        unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
        return _Sparse(unique_keys, np.bincount(inverse.ravel(), weights=multiplicity[keep]))

    def _apply(
        self, edge: _Edge, rows: np.ndarray | None, message: np.ndarray | _Sparse
    ) -> np.ndarray:
        """Per-row counts of the parent's ``rows`` under ``edge``'s message."""
        if edge.dense is not None:
            index = edge.dense[1].index
            return message[index if rows is None else index[rows]]
        table = self.db.table(edge.parent_table)
        if rows is None:
            rows = np.arange(table.n_rows)
        if len(message.keys) == 0:
            return np.zeros(len(rows))
        keys, valid = _key_arrays(table, rows, edge.parent_columns)
        own_codes, child_codes = _joint_codes(keys, message.keys)
        n_codes = int(max(own_codes.max(initial=-1), child_codes.max(initial=-1))) + 1
        per_code = np.bincount(child_codes, weights=message.counts, minlength=n_codes)
        return np.where(valid, per_code[own_codes], 0.0)


def execute_counts(db: Database, queries: Sequence[Query]) -> list[int]:
    """Exact ``SELECT COUNT(*)`` of every query, in order.

    Acyclic queries share one memo for the whole call (see the module
    docstring); cyclic ones fall back to :func:`count_hash_join`.  The
    first invalid query raises :class:`~repro.errors.QueryError`.
    """
    memo = _CountMemo(db)
    counts = []
    for query in queries:
        query.validate(db)
        count = memo.count(query)
        counts.append(count_hash_join(db, query) if count is None else count)
    return counts


def count_factorized(db: Database, query: Query) -> int:
    """Exact COUNT(*) via count messages over a spanning forest.

    Requires the alias join graph to be acyclic; raises otherwise.
    Disconnected components multiply (cross product semantics).
    """
    count = _CountMemo(db).count(query)
    if count is None:
        raise QueryError("count_factorized requires an acyclic join graph")
    return count


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


def execute_count(db: Database, query: Query, method: str = "auto") -> int:
    """Exact result size of ``SELECT COUNT(*)`` for ``query`` on ``db``.

    ``method`` is ``"auto"`` (:func:`execute_counts` over a batch of
    one: factorized when acyclic, else hash join), ``"factorized"``, or
    ``"hash"``.
    """
    if method == "auto":
        return execute_counts(db, [query])[0]
    query.validate(db)
    if method == "factorized":
        return count_factorized(db, query)
    if method == "hash":
        return count_hash_join(db, query)
    raise QueryError(f"unknown execution method {method!r}")
