"""SQL printer/parser tests, including the round-trip property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import as_query, parse_sql, to_sql
from repro.errors import ParseError
from repro.workload import JoinEdge, Predicate, Query, TableRef


class TestParsing:
    def test_minimal(self):
        q = parse_sql("SELECT COUNT(*) FROM title t;")
        assert q.tables == (TableRef("title", "t"),)
        assert q.joins == ()
        assert q.predicates == ()

    def test_alias_defaults_to_table(self):
        q = parse_sql("SELECT COUNT(*) FROM title;")
        assert q.tables == (TableRef("title", "title"),)

    def test_join_and_predicates(self):
        q = parse_sql(
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id=t.id AND t.production_year>2000 "
            "AND mk.keyword_id=42;"
        )
        assert len(q.tables) == 2
        assert len(q.joins) == 1
        assert len(q.predicates) == 2
        assert Predicate("t", "production_year", ">", 2000) in q.predicates

    def test_case_insensitive_keywords(self):
        q = parse_sql("select count(*) from title t where t.id=1;")
        assert len(q.predicates) == 1

    def test_string_literal_with_escape(self):
        q = parse_sql("SELECT COUNT(*) FROM k WHERE k.name='o''brien';")
        assert q.predicates[0].literal == "o'brien"

    def test_float_literal(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE t.x<1.5;")
        assert q.predicates[0].literal == 1.5
        assert isinstance(q.predicates[0].literal, float)

    def test_negative_literal(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE t.x>-3;")
        assert q.predicates[0].literal == -3

    def test_all_operators(self):
        for op in ("=", "<", ">", "<=", ">=", "<>"):
            q = parse_sql(f"SELECT COUNT(*) FROM t WHERE t.x{op}5;")
            assert q.predicates[0].op == op

    def test_semicolon_optional(self):
        assert parse_sql("SELECT COUNT(*) FROM t") == parse_sql(
            "SELECT COUNT(*) FROM t;"
        )

    def test_in_list_numeric(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE t.kind_id IN (3, 1, 2);")
        assert q.predicates[0].op == "in"
        assert q.predicates[0].literal == (1, 2, 3)  # canonicalized

    def test_in_list_strings(self):
        q = parse_sql("SELECT COUNT(*) FROM k WHERE k.name IN ('b', 'a');")
        assert q.predicates[0].literal == ("a", "b")

    def test_in_list_single_member(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE t.x IN (7);")
        assert q.predicates[0].literal == (7,)

    def test_in_keyword_case_insensitive(self):
        q = parse_sql("select count(*) from t where t.x in (1, 2);")
        assert q.predicates[0].op == "in"

    def test_in_members_deduplicated(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE t.x IN (5, 5, 3);")
        assert q.predicates[0].literal == (3, 5)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "SELECT * FROM t;",
            "SELECT COUNT(*) FROM;",
            "SELECT COUNT(*) FROM t WHERE;",
            "SELECT COUNT(*) FROM t WHERE t.x;",
            "SELECT COUNT(*) FROM t WHERE t.x=;",
            "SELECT COUNT(*) FROM t WHERE t.x<t.y;",  # non-equi join
            "SELECT COUNT(*) FROM t t1, t t2 WHERE t1.x=t2.x extra",
            "SELECT COUNT(*) FROM t WHERE t.x=5 OR t.y=2;",
            "SELECT COUNT(*) FROM t WHERE x=5;",  # unqualified column
            "SELECT COUNT(*) FROM t WHERE t.x IN ();",  # empty IN list
            "SELECT COUNT(*) FROM t WHERE t.x IN (1, 2;",  # unclosed
            "SELECT COUNT(*) FROM t WHERE t.x IN 1;",  # missing parens
            "SELECT COUNT(*) FROM t WHERE t.x IN (1,, 2);",
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParseError):
            parse_sql(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_sql("SELECT COUNT(*) FROM t WHERE t.x @ 5;")
        assert "offset" in str(err.value)


class TestAsQuery:
    """The one coercion every ``Query | str`` entry point goes through."""

    SQL = "SELECT COUNT(*) FROM title t WHERE t.production_year>2000;"

    def test_parses_text(self):
        assert as_query(self.SQL) == parse_sql(self.SQL)

    def test_passes_a_query_through(self):
        query = parse_sql(self.SQL)
        assert as_query(query) is query

    def test_bad_text_raises_parse_error(self):
        with pytest.raises(ParseError):
            as_query("DELETE FROM title")


class TestIdentifierInterning:
    def test_two_parses_share_identifier_strings(self):
        # Built at run time so neither text shares constants with the
        # other or with this module.
        sql = "".join(["SELECT COUNT(*) FROM title t, movie_keyword mk ",
                       "WHERE mk.movie_id=t.id AND t.production_year>2000;"])
        first = parse_sql(sql)
        second = parse_sql(sql[:-1] + " ;")
        for a, b in zip(first.tables, second.tables):
            assert a.table is b.table and a.alias is b.alias
        ja, jb = first.joins[0], second.joins[0]
        assert ja.left_column is jb.left_column
        assert ja.right_column is jb.right_column
        pa, pb = first.predicates[0], second.predicates[0]
        assert pa.alias is pb.alias and pa.column is pb.column


class TestPrinting:
    def test_string_escaping_roundtrip(self):
        q = Query(
            tables=(TableRef("k", "k"),),
            predicates=(Predicate("k", "name", "=", "it's"),),
        )
        assert parse_sql(to_sql(q)) == q

    def test_float_printed_as_float(self):
        q = Query(
            tables=(TableRef("t", "t"),),
            predicates=(Predicate("t", "x", "<", 5.0),),
        )
        parsed = parse_sql(to_sql(q))
        assert isinstance(parsed.predicates[0].literal, float)

    def test_in_roundtrip_numeric_and_string(self):
        for literal in ((3, 1, 4), ("it's", "plain")):
            q = Query(
                tables=(TableRef("t", "t"),),
                predicates=(Predicate("t", "x", "in", literal),),
            )
            assert "IN (" in to_sql(q)
            assert parse_sql(to_sql(q)) == q


# ----------------------------------------------------------------------
# round-trip property: parse(print(q)) == q over random queries
# ----------------------------------------------------------------------

names = st.sampled_from(["t", "mk", "mi", "ci", "mc"])
columns = st.sampled_from(["id", "movie_id", "year", "kind_id"])
ops = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])
strings = st.one_of(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
        max_size=8,
    ),
    st.just("with'quote"),
)
literals = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    strings,
)
# IN lists: members all numeric or all string (the Predicate contract).
in_lists = st.one_of(
    st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=4),
    st.lists(strings, min_size=1, max_size=4),
)


@st.composite
def random_queries(draw):
    aliases = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    tables = tuple(TableRef(f"table_{a}", a) for a in aliases)
    joins = []
    for i in range(1, len(aliases)):
        joins.append(JoinEdge(aliases[i], draw(columns), aliases[0], draw(columns)))
    n_preds = draw(st.integers(min_value=0, max_value=3))
    predicates = []
    for _ in range(n_preds):
        alias = draw(st.sampled_from(aliases))
        if draw(st.booleans()):
            predicates.append(
                Predicate(alias, draw(columns), "in", tuple(draw(in_lists)))
            )
            continue
        literal = draw(literals)
        op = "=" if isinstance(literal, str) else draw(ops)
        predicates.append(Predicate(alias, draw(columns), op, literal))
    return Query(tables=tables, joins=tuple(joins), predicates=tuple(predicates))


@settings(max_examples=120, deadline=None)
@given(random_queries())
def test_sql_roundtrip_property(query):
    assert parse_sql(to_sql(query)) == query
