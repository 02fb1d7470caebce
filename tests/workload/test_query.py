"""Query model tests: canonicalization, validation, set semantics."""

import pytest

from repro.errors import QueryError
from repro.workload import (
    JoinEdge,
    Predicate,
    Query,
    TableRef,
    make_join,
    single_table_query,
)


class TestFootprint:
    def test_query_nodes_have_no_instance_dict(self):
        # Serving caches retain one set of nodes per distinct query;
        # slotted nodes keep no per-instance __dict__.
        nodes = (
            TableRef("title", "t"),
            JoinEdge("mk", "movie_id", "t", "id"),
            Predicate("t", "production_year", ">", 2000),
        )
        for node in nodes:
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_slotted_nodes_pickle_and_stay_frozen(self):
        import pickle

        from dataclasses import FrozenInstanceError

        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            joins=(JoinEdge("t", "id", "mk", "movie_id"),),
            predicates=(Predicate("t", "production_year", "in", (2001, 1999)),),
        )
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query and hash(clone) == hash(query)
        with pytest.raises(FrozenInstanceError):
            query.predicates[0].op = "="


class TestJoinEdge:
    def test_canonical_order(self):
        a = JoinEdge("mk", "movie_id", "t", "id")
        b = JoinEdge("t", "id", "mk", "movie_id")
        assert a == b
        assert hash(a) == hash(b)

    def test_make_join_equivalent(self):
        assert make_join("t", "id", "mk", "movie_id") == JoinEdge(
            "mk", "movie_id", "t", "id"
        )

    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinEdge("t", "a", "t", "b")

    def test_side_for_and_other(self):
        j = JoinEdge("mk", "movie_id", "t", "id")
        assert j.side_for("mk") == "movie_id"
        assert j.side_for("t") == "id"
        assert j.other("mk") == ("t", "id")
        with pytest.raises(QueryError):
            j.side_for("zz")


class TestPredicate:
    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            Predicate("t", "x", "!!", 5)

    def test_bool_literal_rejected(self):
        with pytest.raises(QueryError):
            Predicate("t", "x", "=", True)

    def test_str_rendering(self):
        assert str(Predicate("t", "x", ">", 5)) == "t.x>5"
        assert str(Predicate("k", "name", "=", "a'b")) == "k.name='a''b'"


class TestQuery:
    def test_set_semantics_plan_independence(self):
        """(A ⋈ B) ⋈ C and A ⋈ (B ⋈ C) are the same query (paper §2)."""
        tables1 = (TableRef("a", "a"), TableRef("b", "b"), TableRef("c", "c"))
        tables2 = (TableRef("c", "c"), TableRef("a", "a"), TableRef("b", "b"))
        joins1 = (JoinEdge("a", "x", "b", "x"), JoinEdge("b", "y", "c", "y"))
        joins2 = (JoinEdge("c", "y", "b", "y"), JoinEdge("b", "x", "a", "x"))
        assert Query(tables1, joins1) == Query(tables2, joins2)
        assert hash(Query(tables1, joins1)) == hash(Query(tables2, joins2))

    def test_predicate_order_irrelevant(self):
        t = (TableRef("t", "t"),)
        p1 = (Predicate("t", "a", "=", 1), Predicate("t", "b", ">", 2))
        p2 = (Predicate("t", "b", ">", 2), Predicate("t", "a", "=", 1))
        assert Query(t, predicates=p1) == Query(t, predicates=p2)

    def test_no_tables_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=())

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=(TableRef("a", "x"), TableRef("b", "x")))

    def test_join_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            Query(
                tables=(TableRef("a", "a"),),
                joins=(JoinEdge("a", "x", "zz", "y"),),
            )

    def test_predicate_unknown_alias_rejected(self):
        with pytest.raises(QueryError):
            Query(
                tables=(TableRef("a", "a"),),
                predicates=(Predicate("zz", "x", "=", 1),),
            )

    def test_accessors(self):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            joins=(JoinEdge("mk", "movie_id", "t", "id"),),
            predicates=(Predicate("t", "year", ">", 2000),),
        )
        assert query.alias_table("mk") == "movie_keyword"
        assert query.num_joins == 1
        assert query.predicates_for("t") == [Predicate("t", "year", ">", 2000)]
        assert query.predicates_for("mk") == []
        assert len(query.joins_for("t")) == 1
        with pytest.raises(QueryError):
            query.alias_table("zz")

    def test_single_table_query_helper(self):
        query = single_table_query("title", predicates=[Predicate("title", "id", "=", 1)])
        assert query.aliases == ["title"]


class TestValidateAgainstDb:
    def test_valid(self, tiny_db):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            joins=(JoinEdge("mk", "movie_id", "t", "id"),),
            predicates=(Predicate("t", "year", "=", 2005),),
        )
        query.validate(tiny_db)  # must not raise

    def test_unknown_table(self, tiny_db):
        with pytest.raises(QueryError):
            Query(tables=(TableRef("ghost", "g"),)).validate(tiny_db)

    def test_unknown_join_column(self, tiny_db):
        query = Query(
            tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
            joins=(JoinEdge("mk", "ghost", "t", "id"),),
        )
        with pytest.raises(QueryError):
            query.validate(tiny_db)

    def test_literal_type_mismatch(self, tiny_db):
        query = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "year", "=", "twothousand"),),
        )
        with pytest.raises(QueryError):
            query.validate(tiny_db)

    def test_to_sql_smoke(self, tiny_db):
        query = Query(tables=(TableRef("title", "t"),))
        assert "COUNT(*)" in query.to_sql()
        assert str(query) == query.to_sql()
