"""Executor oracle cross-checks on randomized join graphs.

The exact executor is the reproduction's ground-truth labeler (its
counts train every sketch), so before any speedup work it gets pinned
down three ways on randomized small instances:

* ``execute_counts`` on one acyclic query vs the row-by-row brute force;
* ``count_hash_join`` (general) vs the brute force, on both acyclic
  *star/chain* graphs and *cyclic* (triangle) graphs;
* ``execute_count``'s auto dispatch vs both;
* ``execute_counts`` over whole batches (each instance's sub-queries,
  permuted and repeated) vs the brute force, including composite keys,
  triangles routed to the hash join, and keys outside the dense range.

Instances are tiny (a few rows per table) so the brute-force cross
product stays cheap while still exercising NULL join keys, empty
filters, dangling foreign keys, and duplicate join values.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.db import executor

from repro.db import (
    Column,
    ColumnSchema,
    Database,
    DType,
    Table,
    TableSchema,
    count_hash_join,
    execute_count,
    execute_counts,
)
from repro.workload import JoinEdge, Predicate, Query, TableRef

from tests.helpers import brute_force_count

# ----------------------------------------------------------------------
# randomized instance builders
# ----------------------------------------------------------------------

#: Join-key values are drawn from a small domain (plus NULLs) so joins
#: produce real matches, dangles, and duplicates in every run.
_key_values = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_attr_values = st.integers(min_value=0, max_value=2)
#: Keys the dense count vectors cannot index: negative ones, and ones
#: at or past ``_DENSE_KEY_LIMIT``.  Either sends an edge to the sparse
#: path.
_negative_key_values = st.one_of(st.none(), st.integers(min_value=-2, max_value=2))
_huge_key_values = st.one_of(
    st.none(),
    st.sampled_from([0, 1, 2, executor._DENSE_KEY_LIMIT, executor._DENSE_KEY_LIMIT + 1]),
)


def _int_column(name, values):
    valid = np.array([v is not None for v in values], dtype=bool)
    data = np.array([v if v is not None else 0 for v in values], dtype=np.int64)
    return Column(name, DType.INT64, data, valid)


def _table(name, columns: dict[str, list]) -> Table:
    schema = TableSchema(
        name,
        [ColumnSchema(col, DType.INT64, nullable=True) for col in columns],
    )
    return Table(schema, {col: _int_column(col, vals) for col, vals in columns.items()})


@st.composite
def star_instances(draw, keys=_key_values):
    """Fact table joining 1-3 dimension tables on separate key columns."""
    n_dims = draw(st.integers(min_value=1, max_value=3))
    n_fact = draw(st.integers(min_value=0, max_value=6))
    db = Database("star")

    fact_cols = {"a": draw(st.lists(_attr_values, min_size=n_fact, max_size=n_fact))}
    joins, tables = [], [TableRef("fact", "f")]
    for d in range(n_dims):
        key_col = f"k{d}"
        fact_cols[key_col] = draw(
            st.lists(keys, min_size=n_fact, max_size=n_fact)
        )
        n_dim = draw(st.integers(min_value=0, max_value=5))
        db.add_table(
            _table(
                f"dim{d}",
                {
                    "id": draw(st.lists(keys, min_size=n_dim, max_size=n_dim)),
                    "a": draw(st.lists(_attr_values, min_size=n_dim, max_size=n_dim)),
                },
            )
        )
        alias = f"d{d}"
        tables.append(TableRef(f"dim{d}", alias))
        joins.append(JoinEdge("f", key_col, alias, "id"))
    db.add_table(_table("fact", fact_cols))

    predicates = []
    if draw(st.booleans()):
        predicates.append(Predicate("f", "a", draw(st.sampled_from(["=", ">"])), 1))
    if draw(st.booleans()):
        predicates.append(Predicate("d0", "a", "=", draw(_attr_values)))
    query = Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(predicates))
    return db, query


@st.composite
def chain_instances(draw, keys=_key_values):
    """a -> b -> c chain: count messages must pass through b."""
    sizes = [draw(st.integers(min_value=0, max_value=5)) for _ in range(3)]
    db = Database("chain")
    db.add_table(
        _table("ta", {"id": draw(st.lists(keys, min_size=sizes[0], max_size=sizes[0]))})
    )
    db.add_table(
        _table(
            "tb",
            {
                "a_id": draw(st.lists(keys, min_size=sizes[1], max_size=sizes[1])),
                "id": draw(st.lists(keys, min_size=sizes[1], max_size=sizes[1])),
            },
        )
    )
    db.add_table(
        _table(
            "tc",
            {
                "b_id": draw(st.lists(keys, min_size=sizes[2], max_size=sizes[2])),
                "a": draw(st.lists(_attr_values, min_size=sizes[2], max_size=sizes[2])),
            },
        )
    )
    predicates = []
    if draw(st.booleans()):
        predicates.append(Predicate("c", "a", "<", 2))
    query = Query(
        tables=(TableRef("ta", "a"), TableRef("tb", "b"), TableRef("tc", "c")),
        joins=(JoinEdge("a", "id", "b", "a_id"), JoinEdge("b", "id", "c", "b_id")),
        predicates=tuple(predicates),
    )
    return db, query


@st.composite
def triangle_instances(draw):
    """A cyclic 3-clique: out of the factorized core's reach by design."""
    db = Database("tri")
    tables = []
    for name in ("x", "y", "z"):
        n = draw(st.integers(min_value=0, max_value=5))
        db.add_table(
            _table(
                f"t{name}",
                {
                    "u": draw(st.lists(_key_values, min_size=n, max_size=n)),
                    "v": draw(st.lists(_key_values, min_size=n, max_size=n)),
                },
            )
        )
        tables.append(TableRef(f"t{name}", name))
    query = Query(
        tables=tuple(tables),
        joins=(
            JoinEdge("x", "u", "y", "u"),
            JoinEdge("y", "v", "z", "u"),
            JoinEdge("x", "v", "z", "v"),
        ),
    )
    return db, query


@st.composite
def composite_instances(draw):
    """Two tables joined on a two-column key, with a dimension hanging
    off one of them on a single key: a sparse and a dense edge."""
    db = Database("composite")
    n_a, n_b, n_c = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))

    def keys(n):
        return draw(st.lists(_key_values, min_size=n, max_size=n))

    db.add_table(_table("ta", {"u": keys(n_a), "v": keys(n_a), "w": keys(n_a)}))
    db.add_table(_table("tb", {"u": keys(n_b), "v": keys(n_b)}))
    db.add_table(
        _table(
            "tc",
            {"id": keys(n_c), "a": draw(st.lists(_attr_values, min_size=n_c, max_size=n_c))},
        )
    )
    predicates = []
    if draw(st.booleans()):
        predicates.append(Predicate("c", "a", ">", 0))
    query = Query(
        tables=(TableRef("ta", "a"), TableRef("tb", "b"), TableRef("tc", "c")),
        joins=(
            JoinEdge("a", "u", "b", "u"),
            JoinEdge("a", "v", "b", "v"),
            JoinEdge("a", "w", "c", "id"),
        ),
        predicates=tuple(predicates),
    )
    return db, query


def sub_queries(query: Query) -> list[Query]:
    """A batch over one instance: the query, its predicate-free twin,
    every alias alone and every joined pair, each with its predicates."""

    def restricted(aliases, joins):
        return Query(
            tables=tuple(t for t in query.tables if t.alias in aliases),
            joins=tuple(joins),
            predicates=tuple(p for p in query.predicates if p.alias in aliases),
        )

    batch = [query, Query(tables=query.tables, joins=query.joins)]
    batch += [restricted({alias}, ()) for alias in query.aliases]
    batch += [
        restricted(join.aliases, [j for j in query.joins if j.aliases == join.aliases])
        for join in query.joins
    ]
    return batch


def dense_edges(db, query) -> list[bool]:
    """Whether each tree edge of ``query``'s plan took the dense path."""
    plan = executor._CountMemo(db)._plan(query)
    return [step.up.dense for steps in plan for step in steps if step.up]


def in_dense_range(db, query, alias, column) -> bool:
    col = db.table(query.alias_table(alias)).column(column)
    present = col.values[col.valid]
    return bool(((present >= 0) & (present < executor._DENSE_KEY_LIMIT)).all())


# ----------------------------------------------------------------------
# cross-checks
# ----------------------------------------------------------------------


class TestAcyclicOracle:
    @settings(max_examples=60, deadline=None)
    @given(instance=star_instances())
    def test_star_three_way_agreement(self, instance):
        db, query = instance
        truth = brute_force_count(db, query)
        assert execute_counts(db, [query])[0] == truth
        assert count_hash_join(db, query) == truth
        assert execute_count(db, query) == truth

    @settings(max_examples=40, deadline=None)
    @given(instance=chain_instances())
    def test_chain_three_way_agreement(self, instance):
        db, query = instance
        truth = brute_force_count(db, query)
        assert execute_counts(db, [query])[0] == truth
        assert count_hash_join(db, query) == truth
        assert execute_count(db, query) == truth


class TestCyclicOracle:
    @settings(max_examples=40, deadline=None)
    @given(instance=triangle_instances())
    def test_triangle_hash_join_matches_brute_force(self, instance):
        db, query = instance
        truth = brute_force_count(db, query)
        assert count_hash_join(db, query) == truth
        assert execute_count(db, query) == truth  # auto falls back to hash


class TestDisconnectedOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        na=st.integers(min_value=0, max_value=4),
        nb=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    def test_cross_product_multiplies(self, na, nb, data):
        db = Database("cross")
        db.add_table(
            _table("ta", {"a": data.draw(st.lists(_attr_values, min_size=na, max_size=na))})
        )
        db.add_table(
            _table("tb", {"a": data.draw(st.lists(_attr_values, min_size=nb, max_size=nb))})
        )
        query = Query(
            tables=(TableRef("ta", "a"), TableRef("tb", "b")),
            predicates=(Predicate("a", "a", ">", 0),),
        )
        truth = brute_force_count(db, query)
        assert execute_counts(db, [query])[0] == truth
        assert count_hash_join(db, query) == truth
        assert execute_count(db, query) == truth


class TestBatchOracle:
    """``execute_counts`` on a batch equals the brute force, query by
    query, however the batch is ordered or repeated."""

    @staticmethod
    def check_batch(db, batch, order):
        truth = [brute_force_count(db, query) for query in batch]
        assert execute_counts(db, batch) == truth
        permuted = [batch[i] for i in order]
        assert execute_counts(db, permuted + permuted[::-1]) == (
            [truth[i] for i in order] + [truth[i] for i in reversed(order)]
        )

    @settings(max_examples=60, deadline=None)
    @given(instance=star_instances(), data=st.data())
    def test_star_batches(self, instance, data):
        db, query = instance
        batch = sub_queries(query)
        self.check_batch(db, batch, data.draw(st.permutations(range(len(batch)))))

    @settings(max_examples=40, deadline=None)
    @given(instance=chain_instances(), data=st.data())
    def test_chain_batches(self, instance, data):
        db, query = instance
        batch = sub_queries(query)
        self.check_batch(db, batch, data.draw(st.permutations(range(len(batch)))))

    @settings(max_examples=40, deadline=None)
    @given(instance=composite_instances(), data=st.data())
    def test_composite_keys_take_the_sparse_path(self, instance, data):
        db, query = instance
        batch = sub_queries(query)
        self.check_batch(db, batch, data.draw(st.permutations(range(len(batch)))))
        # a-b is the composite edge, a-c the single int key.
        assert sorted(dense_edges(db, query)) == [False, True]

    @settings(max_examples=30, deadline=None)
    @given(instance=triangle_instances(), acyclic=star_instances())
    def test_triangles_route_to_the_hash_join(self, instance, acyclic):
        db, triangle = instance
        with mock.patch.object(
            executor, "count_hash_join", wraps=executor.count_hash_join
        ) as hash_join:
            assert execute_counts(db, [triangle, triangle]) == [
                brute_force_count(db, triangle)
            ] * 2
            assert hash_join.call_count == 2
            star_db, star = acyclic
            assert execute_counts(star_db, [star]) == [brute_force_count(star_db, star)]
            assert hash_join.call_count == 2

    @settings(max_examples=40, deadline=None)
    @given(
        instance=st.one_of(
            star_instances(keys=_negative_key_values),
            star_instances(keys=_huge_key_values),
            chain_instances(keys=_negative_key_values),
            chain_instances(keys=_huge_key_values),
        ),
        data=st.data(),
    )
    def test_keys_outside_the_dense_range(self, instance, data):
        db, query = instance
        batch = sub_queries(query)
        self.check_batch(db, batch, data.draw(st.permutations(range(len(batch)))))
        # An edge is dense exactly when both of its key columns are.
        memo = executor._CountMemo(db)
        for steps in memo._plan(query):
            for step in steps:
                edge = step.up
                if edge is None:
                    continue
                parent = next(
                    s.alias for s in steps if any(c == step.alias for c, _ in s.children)
                )
                want = in_dense_range(
                    db, query, step.alias, edge.columns[0]
                ) and in_dense_range(db, query, parent, edge.parent_columns[0])
                assert edge.dense == want
