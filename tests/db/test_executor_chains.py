"""Chain-join executor properties (the TPC-H-shaped join paths).

The star-join properties live in test_executor.py; these cover the
complementary topology: chains ``dim -> mid -> fact`` where count
messages must pass *through* an interior node, and mixed star+chain
snowflakes (the paper's keyword example query shape:
``keyword <- movie_keyword -> title``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@st.composite
def chain_instances(draw):
    """customer(1..n_c) <- orders(cust fk) <- lineitem(order fk)."""
    n_cust = draw(st.integers(min_value=1, max_value=4))
    orders = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n_cust + 1),  # cust fk
                st.integers(min_value=0, max_value=2),           # priority
            ),
            max_size=8,
        )
    )
    lines = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=len(orders) + 1),  # order fk
                st.integers(min_value=1, max_value=5),                # quantity
            ),
            max_size=12,
        )
    )
    preds = []
    if draw(st.booleans()):
        preds.append(Predicate("o", "priority", "=", draw(st.integers(0, 2))))
    if draw(st.booleans()):
        preds.append(
            Predicate("l", "quantity", draw(st.sampled_from(["<", ">", "="])),
                      draw(st.integers(1, 5)))
        )
    depth = draw(st.integers(min_value=2, max_value=3))
    return n_cust, orders, lines, preds, depth


def _build_chain_db(n_cust, orders, lines):
    db = Database("chain")
    db.add_table(
        Table(
            TableSchema(
                "customer",
                [ColumnSchema("id", DType.INT64)],
                primary_key="id",
            ),
            {"id": Column.from_ints("id", range(1, n_cust + 1))},
        )
    )
    db.add_table(
        Table(
            TableSchema(
                "orders",
                [
                    ColumnSchema("id", DType.INT64),
                    ColumnSchema("cust_id", DType.INT64),
                    ColumnSchema("priority", DType.INT64),
                ],
                primary_key="id",
            ),
            {
                "id": Column.from_ints("id", range(1, len(orders) + 1)),
                "cust_id": Column.from_ints("cust_id", [o[0] for o in orders]),
                "priority": Column.from_ints("priority", [o[1] for o in orders]),
            },
        )
    )
    db.add_table(
        Table(
            TableSchema(
                "lineitem",
                [
                    ColumnSchema("id", DType.INT64),
                    ColumnSchema("order_id", DType.INT64),
                    ColumnSchema("quantity", DType.INT64),
                ],
                primary_key="id",
            ),
            {
                "id": Column.from_ints("id", range(1, len(lines) + 1)),
                "order_id": Column.from_ints("order_id", [l[0] for l in lines]),
                "quantity": Column.from_ints("quantity", [l[1] for l in lines]),
            },
        )
    )
    return db


@settings(max_examples=60, deadline=None)
@given(chain_instances())
def test_chain_executors_agree_with_brute_force(instance):
    n_cust, orders, lines, preds, depth = instance
    db = _build_chain_db(n_cust, orders, lines)
    if depth == 2:
        tables = (TableRef("orders", "o"), TableRef("lineitem", "l"))
        joins = (JoinEdge("l", "order_id", "o", "id"),)
    else:
        tables = (
            TableRef("customer", "c"),
            TableRef("orders", "o"),
            TableRef("lineitem", "l"),
        )
        joins = (
            JoinEdge("o", "cust_id", "c", "id"),
            JoinEdge("l", "order_id", "o", "id"),
        )
    query = Query(
        tables=tables,
        joins=joins,
        predicates=tuple(p for p in preds if p.alias in {t.alias for t in tables}),
    )
    expected = brute_force_count(db, query)
    assert execute_counts(db, [query])[0] == expected
    assert count_hash_join(db, query) == expected


class TestSnowflake:
    """The paper's example shape: keyword <- movie_keyword -> title."""

    def test_keyword_snowflake_count(self, imdb_small):
        query = Query(
            tables=(
                TableRef("title", "t"),
                TableRef("movie_keyword", "mk"),
                TableRef("keyword", "k"),
            ),
            joins=(
                JoinEdge("mk", "movie_id", "t", "id"),
                JoinEdge("mk", "keyword_id", "k", "id"),
            ),
        )
        # Both executors agree, and the unfiltered snowflake equals |mk|
        # (both joins are FK joins with full integrity).
        expected = imdb_small.table("movie_keyword").n_rows
        assert execute_counts(imdb_small, [query])[0] == expected
        assert count_hash_join(imdb_small, query) == expected

    def test_role_dimension_join(self, imdb_small):
        query = Query(
            tables=(TableRef("cast_info", "ci"), TableRef("role_type", "rt")),
            joins=(JoinEdge("ci", "role_id", "rt", "id"),),
            predicates=(Predicate("rt", "role", "=", "actor"),),
        )
        count = execute_count(imdb_small, query)
        ci_role1 = int(
            (imdb_small.table("cast_info").column("role_id").values == 1).sum()
        )
        assert count == ci_role1

    def test_company_type_dimension_join(self, imdb_small):
        query = Query(
            tables=(
                TableRef("movie_companies", "mc"),
                TableRef("company_type", "ct"),
            ),
            joins=(JoinEdge("mc", "company_type_id", "ct", "id"),),
            predicates=(Predicate("ct", "kind", "=", "distributors"),),
        )
        count = execute_count(imdb_small, query)
        mc_type2 = int(
            (imdb_small.table("movie_companies").column("company_type_id").values == 2).sum()
        )
        assert count == mc_type2

    def test_five_table_snowflake(self, imdb_small):
        """Star around title plus two dimension hops — the widest shape
        the demo's UI can assemble from clicks."""
        query = Query(
            tables=(
                TableRef("title", "t"),
                TableRef("movie_keyword", "mk"),
                TableRef("keyword", "k"),
                TableRef("movie_companies", "mc"),
                TableRef("company_type", "ct"),
            ),
            joins=(
                JoinEdge("mk", "movie_id", "t", "id"),
                JoinEdge("mk", "keyword_id", "k", "id"),
                JoinEdge("mc", "movie_id", "t", "id"),
                JoinEdge("mc", "company_type_id", "ct", "id"),
            ),
            predicates=(Predicate("t", "production_year", ">", 2000),),
        )
        fact = execute_counts(imdb_small, [query])[0]
        hash_count = count_hash_join(imdb_small, query)
        assert fact == hash_count
        assert fact > 0
