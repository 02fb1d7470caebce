"""SQL subset printer and parser.

The sketch interface "consumes a SQL query and returns a cardinality
estimate" (paper Figure 1b), so the supported query class has a concrete
textual grammar:

    SELECT COUNT(*)
    FROM <table> <alias> [, <table> <alias>]...
    [WHERE <conjunct> [AND <conjunct>]...] [;]

    conjunct := alias.column = alias.column        -- equi-join
              | alias.column <op> literal           -- base-table predicate
              | alias.column IN (literal [, literal]...)
    op       := = | <> | <= | >= | < | >
    literal  := integer | float | 'string' (with '' escaping)

The parser is a hand-written tokenizer + recursive descent; keywords are
case-insensitive, and ``parse_sql(to_sql(q)) == q`` holds for every valid
query (property-tested).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from ..errors import ParseError
from .query import JoinEdge, Predicate, Query, TableRef

# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def format_literal(literal) -> str:
    """Render a python literal as a SQL literal."""
    if isinstance(literal, str):
        escaped = literal.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(literal, float) and literal.is_integer():
        return f"{literal:.1f}"  # keep the float-ness visible (e.g. 5.0)
    return repr(literal)


def to_sql(query: Query) -> str:
    """Render a structured query as SQL text."""
    from_clause = ",".join(f"{t.table} {t.alias}" for t in query.tables)
    conjuncts = [
        f"{j.left_alias}.{j.left_column}={j.right_alias}.{j.right_column}"
        for j in query.joins
    ]
    for p in query.predicates:
        if p.op == "in":
            members = ",".join(format_literal(m) for m in p.literal)
            conjuncts.append(f"{p.alias}.{p.column} IN ({members})")
        else:
            conjuncts.append(
                f"{p.alias}.{p.column}{p.op}{format_literal(p.literal)}"
            )
    sql = f"SELECT COUNT(*) FROM {from_clause}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    return sql + ";"


# ----------------------------------------------------------------------
# tokenizing
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<number>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|=|<|>)
  | (?P<punct>[(),.;*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r}", position=pos)
        kind = match.lastgroup or ""
        if kind == "name":
            # Identifiers end up in the query nodes that serving caches
            # retain; interned, every cached query shares one string per
            # table, alias and column name instead of holding its own.
            tokens.append(_Token(kind, sys.intern(match.group()), pos))
        elif kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.index = 0

    # -- token stream helpers ------------------------------------------
    def _peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query", position=len(self.sql))
        self.index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text.upper() != text.upper()):
            expected = text or kind
            raise ParseError(
                f"expected {expected!r}, found {token.text!r}", position=token.position
            )
        return token

    def _expect_keyword(self, word: str) -> None:
        self._expect("name", word)

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token and token.kind == "name" and token.text.upper() == word.upper():
            self.index += 1
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token and token.kind == "punct" and token.text == char:
            self.index += 1
            return True
        return False

    # -- grammar -------------------------------------------------------
    def parse(self) -> Query:
        self._expect_keyword("SELECT")
        self._expect_keyword("COUNT")
        self._expect("punct", "(")
        self._expect("punct", "*")
        self._expect("punct", ")")
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._accept_punct(","):
            tables.append(self._table_ref())

        joins: list[JoinEdge] = []
        predicates: list[Predicate] = []
        if self._accept_keyword("WHERE"):
            self._conjunct(joins, predicates)
            while self._accept_keyword("AND"):
                self._conjunct(joins, predicates)

        self._accept_punct(";")
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(
                f"unexpected trailing input {trailing.text!r}",
                position=trailing.position,
            )
        return Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(predicates))

    def _table_ref(self) -> TableRef:
        table = self._expect("name").text
        alias_token = self._peek()
        if alias_token is not None and alias_token.kind == "name" and alias_token.text.upper() not in ("WHERE", "AND"):
            alias = self._next().text
        else:
            alias = table
        return TableRef(table=table, alias=alias)

    def _column_ref(self) -> tuple[str, str]:
        alias = self._expect("name").text
        self._expect("punct", ".")
        column = self._expect("name").text
        return alias, column

    def _literal(self):
        token = self._next()
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "number":
            text = token.text
            if any(c in text for c in ".eE"):
                return float(text)
            return int(text)
        raise ParseError(
            f"expected a literal, found {token.text!r}", position=token.position
        )

    def _conjunct(self, joins: list[JoinEdge], predicates: list[Predicate]) -> None:
        alias, column = self._column_ref()
        if self._accept_keyword("IN"):
            self._expect("punct", "(")
            members = [self._literal()]
            while self._accept_punct(","):
                members.append(self._literal())
            self._expect("punct", ")")
            predicates.append(
                Predicate(alias=alias, column=column, op="in", literal=tuple(members))
            )
            return
        op_token = self._next()
        if op_token.kind != "op":
            raise ParseError(
                f"expected a comparison operator, found {op_token.text!r}",
                position=op_token.position,
            )
        op = op_token.text
        value_token = self._peek()
        if value_token is None:
            raise ParseError("unexpected end of query", position=len(self.sql))
        if value_token.kind == "name":
            # alias.column on the right-hand side: an equi-join.
            if op != "=":
                raise ParseError(
                    f"only equi-joins are supported, found operator {op!r}",
                    position=op_token.position,
                )
            right_alias, right_column = self._column_ref()
            joins.append(JoinEdge(alias, column, right_alias, right_column))
            return
        literal = self._literal()
        predicates.append(Predicate(alias=alias, column=column, op=op, literal=literal))


def parse_sql(sql: str) -> Query:
    """Parse SQL text in the supported subset into a :class:`Query`."""
    if not isinstance(sql, str) or not sql.strip():
        raise ParseError("empty query string")
    return _Parser(sql).parse()
