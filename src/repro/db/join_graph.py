"""Alias-level join-graph analysis for the executor and the enumerator.

A query's join graph has one node per table alias and one edge per pair
of joined aliases (several join conditions between the same pair are
collapsed into one composite edge).  The executor picks its algorithm by
the graph's shape:

* forest (acyclic)  -> factorized message-passing count (fast),
* cyclic            -> materializing hash join (general fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .query import JoinEdge, Query


@dataclass
class PairJoin:
    """All join conditions between one pair of aliases, as a composite key."""

    alias_a: str
    alias_b: str
    columns_a: list[str] = field(default_factory=list)
    columns_b: list[str] = field(default_factory=list)

    def sides_for(self, alias: str) -> tuple[list[str], list[str]]:
        """(own columns, other columns) oriented from ``alias``."""
        if alias == self.alias_a:
            return self.columns_a, self.columns_b
        if alias == self.alias_b:
            return self.columns_b, self.columns_a
        raise QueryError(f"alias {alias!r} not part of pair join")

    def other(self, alias: str) -> str:
        if alias == self.alias_a:
            return self.alias_b
        if alias == self.alias_b:
            return self.alias_a
        raise QueryError(f"alias {alias!r} not part of pair join")


def pair_joins(query: Query) -> dict[frozenset[str], PairJoin]:
    """Group the query's join edges by alias pair into composite joins."""
    pairs: dict[frozenset[str], PairJoin] = {}
    for join in query.joins:
        key = join.aliases
        if key not in pairs:
            a, b = sorted(key)
            pairs[key] = PairJoin(alias_a=a, alias_b=b)
        pair = pairs[key]
        if join.left_alias == pair.alias_a:
            pair.columns_a.append(join.left_column)
            pair.columns_b.append(join.right_column)
        else:
            pair.columns_a.append(join.right_column)
            pair.columns_b.append(join.left_column)
    return pairs


#: alias -> [(neighbor alias, composite join)], in join order.
Adjacency = dict[str, list[tuple[str, PairJoin]]]


@dataclass(frozen=True)
class JoinGraph:
    """A query's alias graph: adjacency, components and shape.

    ``adjacency`` maps each alias to its ``(neighbor, PairJoin)`` edges
    in join order; ``components`` lists each connected component's
    aliases in query alias order.
    """

    adjacency: Adjacency
    components: list[list[str]]
    acyclic: bool

    def neighbors(self, alias: str) -> set[str]:
        return {other for other, _ in self.adjacency[alias]}


def build_join_graph(query: Query) -> JoinGraph:
    """The alias graph of ``query``, one composite edge per joined pair.

    A union-find over the edges finds the components; an edge whose
    ends are already connected closes a cycle.
    """
    aliases = query.aliases
    leader = {alias: alias for alias in aliases}

    def find(alias: str) -> str:
        while leader[alias] != alias:
            leader[alias] = leader[leader[alias]]
            alias = leader[alias]
        return alias

    adjacency: Adjacency = {alias: [] for alias in aliases}
    acyclic = True
    for pair in pair_joins(query).values():
        a, b = pair.alias_a, pair.alias_b
        adjacency[a].append((b, pair))
        adjacency[b].append((a, pair))
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            acyclic = False
        else:
            leader[root_a] = root_b
    components: dict[str, list[str]] = {}
    for alias in aliases:
        components.setdefault(find(alias), []).append(alias)
    return JoinGraph(adjacency, list(components.values()), acyclic)


def is_acyclic(graph: JoinGraph) -> bool:
    """True when the (simple) alias graph is a forest."""
    return graph.acyclic


def connected_components(graph: JoinGraph) -> list[set[str]]:
    return [set(c) for c in graph.components]


def validate_join_graph(query: Query, require_connected: bool = False) -> JoinGraph:
    """Build and sanity-check a query's join graph.

    With ``require_connected=True`` a disconnected graph (an implicit
    cross product) raises; the workload generators always produce
    connected queries, but the executor itself supports cross products.
    """
    graph = build_join_graph(query)
    if require_connected and len(graph.components) > 1:
        raise QueryError(
            f"query joins are disconnected (cross product): {query.aliases}"
        )
    return graph


def join_edge_aliases(joins: tuple[JoinEdge, ...]) -> set[str]:
    """All aliases mentioned by any join edge."""
    out: set[str] = set()
    for join in joins:
        out |= set(join.aliases)
    return out
