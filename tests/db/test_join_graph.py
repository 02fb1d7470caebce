"""Join-graph analysis tests (pair grouping, acyclicity, components)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.join_graph import (
    build_join_graph,
    connected_components,
    is_acyclic,
    pair_joins,
    validate_join_graph,
)
from repro.errors import QueryError
from repro.optimizer.enumerate import connected_subsets
from repro.workload import JoinEdge, Query, TableRef


def query_with(joins, aliases):
    return Query(
        tables=tuple(TableRef(f"table_{a}", a) for a in aliases),
        joins=tuple(joins),
    )


class TestPairJoins:
    def test_single_edge(self):
        q = query_with([JoinEdge("a", "x", "b", "y")], ["a", "b"])
        pairs = pair_joins(q)
        assert len(pairs) == 1
        pair = pairs[frozenset(("a", "b"))]
        assert pair.sides_for("a") == (["x"], ["y"])
        assert pair.sides_for("b") == (["y"], ["x"])
        assert pair.other("a") == "b"

    def test_composite_edge_grouped(self):
        q = query_with(
            [JoinEdge("a", "x", "b", "x"), JoinEdge("a", "y", "b", "y")],
            ["a", "b"],
        )
        pairs = pair_joins(q)
        assert len(pairs) == 1
        own, other = pairs[frozenset(("a", "b"))].sides_for("a")
        assert sorted(own) == ["x", "y"]
        assert sorted(other) == ["x", "y"]

    def test_alias_not_in_pair_rejected(self):
        q = query_with([JoinEdge("a", "x", "b", "y")], ["a", "b"])
        pair = pair_joins(q)[frozenset(("a", "b"))]
        with pytest.raises(QueryError):
            pair.sides_for("zz")
        with pytest.raises(QueryError):
            pair.other("zz")


class TestGraphShape:
    def test_star_is_acyclic(self):
        q = query_with(
            [JoinEdge("b", "fk", "a", "id"), JoinEdge("c", "fk", "a", "id")],
            ["a", "b", "c"],
        )
        assert is_acyclic(build_join_graph(q))

    def test_triangle_is_cyclic(self):
        q = query_with(
            [
                JoinEdge("a", "x", "b", "x"),
                JoinEdge("b", "y", "c", "y"),
                JoinEdge("a", "z", "c", "z"),
            ],
            ["a", "b", "c"],
        )
        assert not is_acyclic(build_join_graph(q))

    def test_composite_edges_do_not_create_cycle(self):
        # Two join conditions between the same pair are ONE edge.
        q = query_with(
            [JoinEdge("a", "x", "b", "x"), JoinEdge("a", "y", "b", "y")],
            ["a", "b"],
        )
        assert is_acyclic(build_join_graph(q))

    def test_components(self):
        q = query_with([JoinEdge("a", "x", "b", "x")], ["a", "b", "c"])
        components = connected_components(build_join_graph(q))
        assert sorted(map(sorted, components)) == [["a", "b"], ["c"]]

    def test_validate_connected(self):
        q = query_with([], ["a", "b"])
        with pytest.raises(QueryError):
            validate_join_graph(q, require_connected=True)
        validate_join_graph(q, require_connected=False)  # cross product ok


# ----------------------------------------------------------------------
# oracle: random alias graphs against brute-force breadth-first search
# ----------------------------------------------------------------------


@st.composite
def alias_graphs(draw, max_aliases=8):
    """A query over 1..max_aliases aliases with random join edges.

    Columns are drawn from a small pool, so some alias pairs get several
    join conditions (one composite edge) and some repeat one exactly.
    """
    n = draw(st.integers(1, max_aliases))
    aliases = [chr(ord("a") + i) for i in range(n)]
    joins = []
    if n > 1:
        ends = st.tuples(st.sampled_from(aliases), st.sampled_from(aliases)).filter(
            lambda pair: pair[0] != pair[1]
        )
        columns = st.sampled_from(["x", "y", "z"])
        for (a, b), col_a, col_b in draw(
            st.lists(st.tuples(ends, columns, columns), max_size=2 * n)
        ):
            joins.append(JoinEdge(a, col_a, b, col_b))
    return query_with(joins, aliases)


def bfs_components(aliases, edges):
    """Components of the simple graph over ``aliases``, by BFS."""
    neighbors = {a: set() for a in aliases}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen, components = set(), []
    for start in aliases:
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            frontier = [n for a in frontier for n in neighbors[a] - component]
            component.update(frontier)
        seen |= component
        components.append(component)
    return components


def simple_edges(query):
    return {frozenset((j.left_alias, j.right_alias)) for j in query.joins}


class TestJoinGraphOracle:
    @settings(max_examples=200, deadline=None)
    @given(query=alias_graphs())
    def test_components_and_acyclicity(self, query):
        edges = [tuple(e) for e in simple_edges(query)]
        expected = bfs_components(query.aliases, edges)
        graph = build_join_graph(query)
        assert sorted(map(sorted, connected_components(graph))) == sorted(
            map(sorted, expected)
        )
        for component in graph.components:
            assert component == [a for a in query.aliases if a in component]
        # A simple graph is a forest iff |E| = |V| - #components.
        forest = len(edges) == len(query.aliases) - len(expected)
        assert is_acyclic(graph) is forest
        for alias in query.aliases:
            assert graph.neighbors(alias) == {
                b for a, b in edges if a == alias
            } | {a for a, b in edges if b == alias}

    @settings(max_examples=200, deadline=None)
    @given(query=alias_graphs())
    def test_require_connected_raises_exactly_on_a_cross_product(self, query):
        n_components = len(bfs_components(query.aliases, simple_edges(query)))
        if n_components > 1:
            with pytest.raises(QueryError):
                validate_join_graph(query, require_connected=True)
        else:
            validate_join_graph(query, require_connected=True)
        validate_join_graph(query, require_connected=False)

    @settings(max_examples=150, deadline=None)
    @given(query=alias_graphs(max_aliases=7))
    def test_connected_subsets_match_a_scan_of_every_subset(self, query):
        aliases = query.aliases
        edges = simple_edges(query)
        if len(bfs_components(aliases, edges)) > 1:
            with pytest.raises(QueryError):
                connected_subsets(query)
            return
        scanned = []
        for bits in range(1, 1 << len(aliases)):
            members = [i for i in range(len(aliases)) if bits >> i & 1]
            subset = [aliases[i] for i in members]
            inside = [tuple(e) for e in edges if e <= set(subset)]
            if len(bfs_components(subset, inside)) == 1:
                scanned.append(members)
        scanned.sort(key=lambda members: (len(members), members))
        assert connected_subsets(query) == [
            frozenset(aliases[i] for i in members) for members in scanned
        ]
