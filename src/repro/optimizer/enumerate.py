"""Join enumeration: exhaustive DP over connected subsets, plus a greedy
baseline.

``dp_optimal_plan`` implements the classic dynamic program (DPsub/DPsize
family): for every connected alias subset, the cheapest tree is the
cheapest combination of two disjoint connected sub-plans joined by at
least one edge.  For the ≤5-way joins of JOB-light this is exact and
fast; complexity is exponential in the number of relations, so a guard
rejects queries beyond a configurable width.

``greedy_plan`` repeatedly joins the pair of sub-plans with the smallest
estimated output — the textbook heuristic, included as a baseline for
the enumeration-strategy comparison.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import QueryError
from ..db.join_graph import build_join_graph
from ..db.query import Query
from .cost import CardinalityCache
from .plans import JoinNode, LeafNode, PlanNode

#: DP explores O(3^n) subset splits; 10 relations is already generous.
MAX_DP_RELATIONS = 10


def _neighbors(query: Query) -> dict[str, set[str]]:
    graph = build_join_graph(query)
    return {alias: graph.neighbors(alias) for alias in query.aliases}


def _connected(aliases: frozenset[str], neighbors: dict[str, set[str]]) -> bool:
    """Is the induced subgraph on ``aliases`` connected?"""
    if not aliases:
        return False
    seen = set()
    stack = [next(iter(aliases))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(neighbors[node] & aliases - seen)
    return seen == aliases


def _has_edge_between(
    a: frozenset[str], b: frozenset[str], neighbors: dict[str, set[str]]
) -> bool:
    return any(neighbors[alias] & b for alias in a)


def connected_subsets(query: Query) -> list[frozenset[str]]:
    """Every connected alias subset of the query's join graph.

    Deterministic order: by size, then by the alias order of
    ``query.aliases`` (the same ``combinations`` sweep the DP uses) —
    singletons first, the full query last.  These are exactly the
    subsets ``dp_optimal_plan`` probes cardinalities for (plus the
    singletons, which the DP seeds at zero cost but a degraded-estimate
    fallback needs), so a caller batching estimates ahead of the DP
    enumerates with this function and injects the answers.

    Raises :class:`~repro.errors.QueryError` under the same guards as
    the DP: more than :data:`MAX_DP_RELATIONS` relations, or a
    disconnected join graph.
    """
    aliases = list(query.aliases)
    n = len(aliases)
    if n > MAX_DP_RELATIONS:
        raise QueryError(
            f"{n} relations exceed the DP enumeration limit of {MAX_DP_RELATIONS}"
        )
    neighbors = _neighbors(query)
    if n > 1 and not _connected(frozenset(aliases), neighbors):
        raise QueryError("DP enumeration requires a connected join graph")
    subsets: list[frozenset[str]] = []
    for size in range(1, n + 1):
        for combo in combinations(aliases, size):
            subset = frozenset(combo)
            if _connected(subset, neighbors):
                subsets.append(subset)
    return subsets


def dp_optimal_plan(
    query: Query, cards: CardinalityCache
) -> tuple[PlanNode, float]:
    """Exhaustive bushy-plan DP; returns (plan, estimated C_out).

    Requires a connected join graph (no cross products) and at most
    :data:`MAX_DP_RELATIONS` relations.
    """
    aliases = list(query.aliases)
    n = len(aliases)
    if n > MAX_DP_RELATIONS:
        raise QueryError(
            f"{n} relations exceed the DP enumeration limit of {MAX_DP_RELATIONS}"
        )
    neighbors = _neighbors(query)
    if n > 1 and not _connected(frozenset(aliases), neighbors):
        raise QueryError("DP enumeration requires a connected join graph")

    best: dict[frozenset[str], tuple[PlanNode, float]] = {
        frozenset((a,)): (LeafNode(a), 0.0) for a in aliases
    }

    for size in range(2, n + 1):
        for combo in combinations(aliases, size):
            subset = frozenset(combo)
            if not _connected(subset, neighbors):
                continue
            output_card = cards.cardinality(subset)
            best_pair: tuple[PlanNode, float] | None = None
            # Enumerate splits into two connected halves with a join edge.
            members = sorted(subset)
            anchor = members[0]
            rest = members[1:]
            for r in range(0, len(rest)):
                for part in combinations(rest, r):
                    left = frozenset((anchor, *part))
                    right = subset - left
                    if not right:
                        continue
                    if left not in best or right not in best:
                        continue
                    if not _has_edge_between(left, right, neighbors):
                        continue
                    cost = best[left][1] + best[right][1] + output_card
                    if best_pair is None or cost < best_pair[1]:
                        best_pair = (
                            JoinNode(best[left][0], best[right][0]),
                            cost,
                        )
            if best_pair is not None:
                best[subset] = best_pair

    full = frozenset(aliases)
    if full not in best:
        raise QueryError("no connected plan covers the whole query")
    return best[full]


def greedy_plan(query: Query, cards: CardinalityCache) -> tuple[PlanNode, float]:
    """Greedy enumeration: always join the pair with the smallest
    estimated output cardinality.  Returns (plan, estimated C_out)."""
    neighbors = _neighbors(query)
    forest: dict[frozenset[str], PlanNode] = {
        frozenset((a,)): LeafNode(a) for a in query.aliases
    }
    total_cost = 0.0
    while len(forest) > 1:
        candidates = []
        for a, b in combinations(forest, 2):
            if _has_edge_between(a, b, neighbors):
                candidates.append((cards.cardinality(a | b), a, b))
        if not candidates:
            raise QueryError("greedy enumeration requires a connected join graph")
        card, a, b = min(candidates, key=lambda item: item[0])
        forest[a | b] = JoinNode(forest.pop(a), forest.pop(b))
        total_cost += card
    return next(iter(forest.values())), total_cost
