"""COUNT(*) executor tests: known answers, cross-checks, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import (
    Column,
    ColumnSchema,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
    count_factorized,
    count_hash_join,
    execute_count,
    execute_counts,
)
from repro.errors import QueryError
from repro.workload import JoinEdge, Predicate, Query, TableRef

from tests.helpers import brute_force_count


def q(tables, joins=(), predicates=()):
    return Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(predicates))


class TestSingleTable:
    def test_unfiltered(self, tiny_db):
        query = q([TableRef("title", "t")])
        assert execute_count(tiny_db, query) == 6

    def test_filtered(self, tiny_db):
        query = q([TableRef("title", "t")], predicates=[Predicate("t", "year", "=", 2005)])
        assert execute_count(tiny_db, query) == 2

    def test_null_excluded_from_range(self, tiny_db):
        query = q([TableRef("title", "t")], predicates=[Predicate("t", "year", ">", 0)])
        assert execute_count(tiny_db, query) == 5  # row 5 has NULL year

    def test_empty_result(self, tiny_db):
        query = q([TableRef("title", "t")], predicates=[Predicate("t", "year", ">", 9999)])
        assert execute_count(tiny_db, query) == 0


class TestJoins:
    def test_two_way(self, tiny_db):
        query = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
        )
        assert execute_count(tiny_db, query) == 8

    def test_two_way_filtered(self, tiny_db):
        query = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
            predicates=[Predicate("mk", "keyword_id", "=", 7)],
        )
        # keyword 7 rows: movies 1, 2, 3 -> 3 join rows
        assert execute_count(tiny_db, query) == 3

    def test_star_three_way(self, tiny_db):
        query = q(
            [
                TableRef("title", "t"),
                TableRef("movie_keyword", "mk"),
                TableRef("movie_info", "mi"),
            ],
            joins=[
                JoinEdge("mk", "movie_id", "t", "id"),
                JoinEdge("mi", "movie_id", "t", "id"),
            ],
        )
        # per-movie: mk counts {1:2,2:1,3:2,4:1,6:2}, mi counts {2:1,3:2,4:1,5:1}
        # product summed over movies: 2*0+1*1+2*2+1*1+0+0 = 6
        assert execute_count(tiny_db, query) == 6
        assert brute_force_count(tiny_db, query) == 6

    def test_cross_product_components(self, tiny_db):
        query = q([TableRef("title", "t"), TableRef("movie_info", "mi")])
        assert execute_count(tiny_db, query) == 6 * 5

    def test_cross_product_with_a_joined_component(self, tiny_db):
        """The hash join filters each component by its own edges only."""
        query = q(
            [
                TableRef("title", "t"),
                TableRef("movie_keyword", "mk"),
                TableRef("movie_info", "mi"),
            ],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
        )
        assert execute_count(tiny_db, query) == 8 * 5
        assert count_hash_join(tiny_db, query) == 8 * 5

    def test_methods_agree(self, tiny_db):
        query = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
            predicates=[Predicate("t", "year", ">", 2001)],
        )
        assert count_factorized(tiny_db, query) == count_hash_join(tiny_db, query)

    def test_explicit_methods(self, tiny_db):
        query = q([TableRef("title", "t")])
        assert execute_count(tiny_db, query, method="factorized") == 6
        assert execute_count(tiny_db, query, method="hash") == 6
        with pytest.raises(QueryError):
            execute_count(tiny_db, query, method="quantum")

    def test_counts_without_the_networkx_join_graph(self, tiny_db, monkeypatch):
        """The counting core builds the shared join graph once per join
        structure in a batch."""
        from repro.db import executor

        calls = []
        own = executor.build_join_graph
        monkeypatch.setattr(
            executor, "build_join_graph", lambda query: calls.append(query) or own(query)
        )
        query = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
        )
        filtered = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
            predicates=[Predicate("mk", "keyword_id", "=", 7)],
        )
        assert execute_count(tiny_db, query) == 8
        assert len(calls) == 1
        calls.clear()
        assert execute_counts(tiny_db, [query, filtered, query]) == [8, 3, 8]
        assert len(calls) == 1
        assert count_factorized(tiny_db, query) == 8
        assert count_hash_join(tiny_db, query) == 8

    def test_trees_are_rooted_at_the_hub(self, tiny_db):
        """Most joins wins; a tie goes to the smaller table."""
        from repro.db import executor

        def root(query):
            (steps,) = executor._CountMemo(tiny_db)._plan(query)
            return steps[-1].alias

        pair = q(
            [TableRef("title", "t"), TableRef("movie_keyword", "mk")],
            joins=[JoinEdge("mk", "movie_id", "t", "id")],
        )
        chain = q(
            [TableRef("movie_keyword", "mk"), TableRef("title", "t"),
             TableRef("movie_info", "mi")],
            joins=[JoinEdge("mk", "movie_id", "t", "id"), JoinEdge("mi", "movie_id", "t", "id")],
        )
        assert root(pair) == "t"  # 6 title rows vs 8 movie_keyword rows
        assert root(chain) == "t"  # the only alias with two joins

    def test_validation_unknown_column(self, tiny_db):
        query = q(
            [TableRef("title", "t")], predicates=[Predicate("t", "ghost", "=", 1)]
        )
        with pytest.raises(QueryError):
            execute_count(tiny_db, query)

    def test_validation_unknown_table(self, tiny_db):
        query = q([TableRef("ghost", "g")])
        with pytest.raises(QueryError):
            execute_count(tiny_db, query)


class TestNullJoinKeys:
    def test_null_keys_never_join(self):
        db = Database("nulls")
        left = Table(
            TableSchema(
                "left_t",
                [ColumnSchema("k", DType.INT64, nullable=True)],
            ),
            {
                "k": Column.from_ints(
                    "k", [1, 1, 0], valid=np.array([True, True, False])
                )
            },
        )
        right = Table(
            TableSchema(
                "right_t",
                [ColumnSchema("k", DType.INT64, nullable=True)],
            ),
            {
                "k": Column.from_ints(
                    "k", [1, 0], valid=np.array([True, False])
                )
            },
        )
        db.add_table(left)
        db.add_table(right)
        query = q(
            [TableRef("left_t", "a"), TableRef("right_t", "b")],
            joins=[JoinEdge("a", "k", "b", "k")],
        )
        # Only the two valid 1s on the left match the single valid 1 right.
        assert execute_count(db, query) == 2
        assert count_hash_join(db, query) == 2


class TestCyclicJoins:
    @pytest.fixture
    def triangle_db(self):
        """Three tables joined in a cycle a-b, b-c, a-c."""
        db = Database("tri")
        for name in ("ta", "tb", "tc"):
            db.add_table(
                Table(
                    TableSchema(
                        name,
                        [
                            ColumnSchema("x", DType.INT64),
                            ColumnSchema("y", DType.INT64),
                        ],
                    ),
                    {
                        "x": Column.from_ints("x", [1, 1, 2, 3]),
                        "y": Column.from_ints("y", [1, 2, 2, 3]),
                    },
                )
            )
        return db

    def test_cycle_falls_back_to_hash(self, triangle_db):
        query = q(
            [TableRef("ta", "a"), TableRef("tb", "b"), TableRef("tc", "c")],
            joins=[
                JoinEdge("a", "x", "b", "x"),
                JoinEdge("b", "y", "c", "y"),
                JoinEdge("a", "y", "c", "x"),
            ],
        )
        expected = brute_force_count(triangle_db, query)
        assert execute_count(triangle_db, query) == expected
        with pytest.raises(QueryError):
            count_factorized(triangle_db, query)

    def test_multi_edge_composite_join(self, triangle_db):
        query = q(
            [TableRef("ta", "a"), TableRef("tb", "b")],
            joins=[JoinEdge("a", "x", "b", "x"), JoinEdge("a", "y", "b", "y")],
        )
        expected = brute_force_count(triangle_db, query)
        assert execute_count(triangle_db, query) == expected
        assert count_factorized(triangle_db, query) == expected


# ----------------------------------------------------------------------
# property: factorized == hash join == brute force on random tiny inputs
# ----------------------------------------------------------------------


@st.composite
def random_star_instances(draw):
    """A random 3-table star database plus a random query over it."""
    n_dim = draw(st.integers(min_value=1, max_value=6))
    fact_a = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n_dim + 2),  # fk (may dangle)
                st.integers(min_value=0, max_value=3),          # attr
            ),
            max_size=10,
        )
    )
    fact_b = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n_dim + 2),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=10,
        )
    )
    dim_attr = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n_dim, max_size=n_dim)
    )
    predicates = []
    for alias, column in (("d", "attr"), ("a", "attr"), ("b", "attr")):
        if draw(st.booleans()):
            predicates.append(
                Predicate(
                    alias,
                    column,
                    draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])),
                    draw(st.integers(min_value=0, max_value=3)),
                )
            )
    n_joined = draw(st.integers(min_value=0, max_value=2))
    return n_dim, fact_a, fact_b, dim_attr, predicates, n_joined


@settings(max_examples=60, deadline=None)
@given(random_star_instances())
def test_executors_agree_with_brute_force(instance):
    n_dim, fact_a, fact_b, dim_attr, predicates, n_joined = instance

    db = Database("prop")
    db.add_table(
        Table(
            TableSchema(
                "dim",
                [ColumnSchema("id", DType.INT64), ColumnSchema("attr", DType.INT64)],
                primary_key="id",
            ),
            {
                "id": Column.from_ints("id", range(1, n_dim + 1)),
                "attr": Column.from_ints("attr", dim_attr),
            },
        )
    )
    for name, rows in (("fact_a", fact_a), ("fact_b", fact_b)):
        db.add_table(
            Table(
                TableSchema(
                    name,
                    [ColumnSchema("fk", DType.INT64), ColumnSchema("attr", DType.INT64)],
                ),
                {
                    "fk": Column.from_ints("fk", [r[0] for r in rows]),
                    "attr": Column.from_ints("attr", [r[1] for r in rows]),
                },
            )
        )

    aliases = {"d": "dim", "a": "fact_a", "b": "fact_b"}
    used = ["d"] + (["a"] if n_joined >= 1 else []) + (["b"] if n_joined >= 2 else [])
    tables = [TableRef(aliases[al], al) for al in used]
    joins = [JoinEdge(al, "fk", "d", "id") for al in used if al != "d"]
    preds = [p for p in predicates if p.alias in used]
    query = Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(preds))

    expected = brute_force_count(db, query)
    assert count_factorized(db, query) == expected
    assert count_hash_join(db, query) == expected
    assert execute_count(db, query) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_imdb_query_methods_agree(seed):
    """Factorized and hash executors agree on generated IMDb queries."""
    # Uses a module-level cached small IMDb to keep the property fast.
    global _PROP_DB
    try:
        db = _PROP_DB
    except NameError:
        from repro.datasets import ImdbConfig, generate_imdb

        db = _PROP_DB = generate_imdb(ImdbConfig(scale=0.05, seed=3))
    from repro.workload import TrainingQueryGenerator, spec_for_imdb

    generator = TrainingQueryGenerator(db, spec_for_imdb(), seed=seed)
    query = generator.draw()
    assert count_factorized(db, query) == count_hash_join(db, query)
