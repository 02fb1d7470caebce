"""Exact COUNT(*) execution.

This module is the reproduction's stand-in for HyPer as the source of
**true cardinalities** (training labels and ground truth in the demo).
Two algorithms are implemented and cross-checked in the test suite:

* :func:`count_factorized` — for acyclic join graphs.  Rather than
  materializing join results (which explode for star joins over fact
  tables), it pushes *count messages* up a spanning tree of the join
  graph: each alias aggregates the product of its children's counts per
  join key, grouped by the key toward its parent.  This is the classic
  factorized / Yannakakis-style aggregation and is exact for COUNT(*)
  over acyclic equi-joins.

* :func:`count_hash_join` — a general materializing pipeline of binary
  hash joins (with residual-edge filters for cyclic graphs).  Exact for
  any join graph, but memory scales with intermediate result sizes, so
  it serves as the fallback and as the test oracle.

:func:`execute_count` picks automatically and handles cross products
(disconnected join graphs) by multiplying per-component counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import QueryError
from .database import Database
from .join_graph import (
    PairJoin,
    build_join_graph,
    is_acyclic,
)
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - avoids a db <-> workload import cycle
    from ..workload.query import Predicate, Query


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


def count_factorized(db: Database, query: Query) -> int:
    """Exact COUNT(*) via count messages over a spanning forest.

    Requires the alias join graph to be acyclic; raises otherwise.
    Disconnected components multiply (cross product semantics).
    """
    graph = build_join_graph(query)
    if not is_acyclic(graph):
        raise QueryError("count_factorized requires an acyclic join graph")
    return _count_forest(db, query, graph)


def _count_forest(db: Database, query: Query, graph) -> int:
    """:func:`count_factorized` on a join graph already known acyclic."""
    import networkx as nx

    total = 1
    for component in nx.connected_components(graph):
        root = sorted(component)[0]
        count = _component_count(db, query, graph, root)
        if count == 0:
            return 0
        total *= count
    return int(total)


#: Dense count vectors are used when integer join keys fall in
#: ``[0, _DENSE_KEY_LIMIT)`` — bincount beats sort-based np.unique by
#: an order of magnitude on the dense id domains of star schemas.
_DENSE_KEY_LIMIT = 8_000_000


def _int_keys(table: Table, rows: np.ndarray, columns: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Single-column int64 join keys, or ``None`` if the fast path
    does not apply (multi-column or non-integer keys)."""
    if len(columns) != 1:
        return None
    col = table.column(columns[0])
    if col.values.dtype.kind != "i":
        return None
    return col.values[rows], col.valid[rows]


class _Message:
    """A count message: key -> summed multiplicity.

    ``dense`` holds a vector indexed by the raw key value; ``sparse``
    holds (unique key matrix, counts) for the generic composite case.
    """

    __slots__ = ("dense", "keys", "counts")

    def __init__(self, dense: np.ndarray | None, keys: np.ndarray | None, counts: np.ndarray | None):
        self.dense = dense
        self.keys = keys
        self.counts = counts


def _build_message(
    table: Table, rows: np.ndarray, columns: list[str], multiplicity: np.ndarray
) -> _Message:
    """Aggregate ``multiplicity`` by the join key toward the parent."""
    fast = _int_keys(table, rows, columns)
    if fast is not None:
        values, valid = fast
        keep = valid & (multiplicity > 0)
        if keep.any():
            vals = values[keep]
            low, high = int(vals.min()), int(vals.max())
            if 0 <= low and high < _DENSE_KEY_LIMIT:
                dense = np.bincount(vals, weights=multiplicity[keep], minlength=high + 1)
                return _Message(dense, None, None)
        else:
            return _Message(np.zeros(1), None, None)
    keys, valid = _key_arrays(table, rows, columns)
    keep = valid & (multiplicity > 0)
    keys = keys[keep]
    weights = multiplicity[keep]
    if len(keys) == 0:
        return _Message(None, np.empty((0, len(columns))), np.empty(0))
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    counts = np.bincount(inverse.ravel(), weights=weights)
    return _Message(None, unique_keys, counts)


def _apply_message(
    table: Table, rows: np.ndarray, columns: list[str], message: _Message
) -> np.ndarray:
    """Per-row child counts for ``rows`` under the join ``columns``."""
    if message.dense is not None:
        fast = _int_keys(table, rows, columns)
        if fast is not None:
            values, valid = fast
            in_range = valid & (values >= 0) & (values < len(message.dense))
            safe = np.where(in_range, values, 0)
            return np.where(in_range, message.dense[safe], 0.0)
        # Dense message but non-fast parent keys: expand to sparse.
        keys = np.flatnonzero(message.dense)
        message = _Message(None, keys.astype(np.float64)[:, None], message.dense[keys])
    keys, valid = _key_arrays(table, rows, columns)
    if len(message.keys) == 0:
        return np.zeros(len(rows))
    own_codes, child_codes = _joint_codes(keys, message.keys)
    n_codes = int(max(own_codes.max(initial=-1), child_codes.max(initial=-1))) + 1
    per_code = np.bincount(child_codes, weights=message.counts, minlength=n_codes)
    return np.where(valid, per_code[own_codes], 0.0)


def _component_count(db: Database, query: Query, graph, root: str) -> int:
    """Sum of multiplicities at the root of one tree component."""
    # Iterative post-order over the spanning tree rooted at `root`.
    parent: dict[str, str | None] = {root: None}
    order: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbor in graph.neighbors(node):
            if neighbor not in parent:
                parent[neighbor] = node
                stack.append(neighbor)

    messages: dict[str, _Message] = {}

    for alias in reversed(order):
        table, rows = _filtered_rows(db, query, alias)
        multiplicity = np.ones(len(rows), dtype=np.float64)

        for neighbor in graph.neighbors(alias):
            if parent.get(neighbor) != alias:
                continue  # only pull messages from children
            pair: PairJoin = graph.edges[alias, neighbor]["pair"]
            own_cols, _ = pair.sides_for(alias)
            multiplicity *= _apply_message(
                table, rows, own_cols, messages.pop(neighbor)
            )

        if parent[alias] is None:
            return int(round(multiplicity.sum()))

        pair = graph.edges[alias, parent[alias]]["pair"]
        own_cols, _ = pair.sides_for(alias)
        messages[alias] = _build_message(table, rows, own_cols, multiplicity)

    raise AssertionError("unreachable: root handled inside the loop")


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

    import networkx as nx

    total = 1
    for component in nx.connected_components(graph):
        count = _hash_join_component(db, query, graph, sorted(component), max_intermediate)
        if count == 0:
            return 0
        total *= count
    return int(total)


def _hash_join_component(
    db: Database, query: Query, graph, aliases: list[str], max_intermediate: int
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
        frozenset((a, b)): data["pair"] for a, b, data in graph.edges(data=True)
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

    ``method`` is ``"auto"`` (factorized when acyclic, else hash join),
    ``"factorized"``, or ``"hash"``.
    """
    query.validate(db)
    if method == "factorized":
        return count_factorized(db, query)
    if method == "hash":
        return count_hash_join(db, query)
    if method != "auto":
        raise QueryError(f"unknown execution method {method!r}")
    graph = build_join_graph(query)
    if is_acyclic(graph):
        return _count_forest(db, query, graph)
    return count_hash_join(db, query)
