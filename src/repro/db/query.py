"""Structured representation of the supported query class.

Deep Sketches estimate ``SELECT COUNT(*)`` queries that combine

* a set of base tables (with aliases),
* a set of equi-join edges between alias columns, and
* a set of base-table predicates ``alias.column <op> literal``

joined conjunctively.  This mirrors the MSCN model's view of a query as
three sets, and is the exchange format between the workload generators,
the SQL parser/printer, the executor, the samplers, and the featurizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..errors import QueryError
from ..ops import OPERATORS

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .database import Database

Literal = int | float | str | tuple


@dataclass(frozen=True, order=True, slots=True)
class TableRef:
    """A base table with its alias, e.g. ``title t``."""

    table: str
    alias: str

    def __str__(self) -> str:
        return f"{self.table} {self.alias}"


@dataclass(frozen=True, order=True, slots=True)
class JoinEdge:
    """An equi-join ``left_alias.left_column = right_alias.right_column``.

    Construction canonicalizes the side order so that structurally equal
    joins compare and hash equal regardless of how they were written.
    """

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def __post_init__(self):
        if self.left_alias == self.right_alias:
            raise QueryError(
                f"self-join edge on alias {self.left_alias!r} is not supported"
            )
        if (self.left_alias, self.left_column) > (self.right_alias, self.right_column):
            # Swap sides into canonical order (frozen dataclass workaround).
            old_left = (self.left_alias, self.left_column)
            object.__setattr__(self, "left_alias", self.right_alias)
            object.__setattr__(self, "left_column", self.right_column)
            object.__setattr__(self, "right_alias", old_left[0])
            object.__setattr__(self, "right_column", old_left[1])

    def __str__(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column}"
            f"={self.right_alias}.{self.right_column}"
        )

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.left_alias, self.right_alias))

    def side_for(self, alias: str) -> str:
        """Column name used by ``alias`` in this join."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise QueryError(f"alias {alias!r} is not part of join {self}")

    def other(self, alias: str) -> tuple[str, str]:
        """(alias, column) of the side opposite ``alias``."""
        if alias == self.left_alias:
            return (self.right_alias, self.right_column)
        if alias == self.right_alias:
            return (self.left_alias, self.left_column)
        raise QueryError(f"alias {alias!r} is not part of join {self}")


def make_join(alias_a: str, column_a: str, alias_b: str, column_b: str) -> JoinEdge:
    """Create a canonical :class:`JoinEdge` (sides may be given in any order)."""
    return JoinEdge(alias_a, column_a, alias_b, column_b)


def _canonical_in_members(members) -> tuple:
    """Validate and canonicalize an ``in`` literal's member tuple.

    Members must be scalars of one kind (all strings or all numerics);
    duplicates collapse and the survivors are sorted, so two IN lists
    with the same member set compare, hash, and print identically.
    """
    if isinstance(members, (str, bytes)) or not isinstance(members, (tuple, list)):
        raise QueryError(
            f"'in' takes a tuple of scalar literals, got {members!r}"
        )
    if not members:
        raise QueryError("'in' needs at least one member literal")
    kinds = set()
    for member in members:
        if isinstance(member, bool):
            raise QueryError("boolean literals are not supported")
        if isinstance(member, str):
            kinds.add("string")
        elif isinstance(member, (int, float)):
            kinds.add("numeric")
        else:
            raise QueryError(f"unsupported 'in' member literal {member!r}")
    if len(kinds) > 1:
        raise QueryError(
            f"'in' members must all be strings or all numeric, got {members!r}"
        )
    return tuple(sorted(set(members)))


@dataclass(frozen=True, slots=True)
class Predicate:
    """A base-table selection ``alias.column <op> literal``.

    For ``op == "in"`` the literal is a non-empty tuple of same-kind
    scalars (set membership, i.e. a disjunction of equalities); member
    order and duplicates are canonicalized away at construction.
    """

    alias: str
    column: str
    op: str
    literal: Literal

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise QueryError(f"unknown operator {self.op!r}")
        if self.op == "in":
            object.__setattr__(
                self, "literal", _canonical_in_members(self.literal)
            )
            return
        if isinstance(self.literal, bool):
            raise QueryError("boolean literals are not supported")
        if isinstance(self.literal, (tuple, list)):
            raise QueryError(
                f"tuple literals are only valid with 'in', got op {self.op!r}"
            )

    def __str__(self) -> str:
        from .sql import format_literal

        if self.op == "in":
            members = ",".join(format_literal(m) for m in self.literal)
            return f"{self.alias}.{self.column} IN ({members})"
        if isinstance(self.literal, str):
            escaped = self.literal.replace("'", "''")
            return f"{self.alias}.{self.column}{self.op}'{escaped}'"
        return f"{self.alias}.{self.column}{self.op}{self.literal!r}"

    def sort_key(self) -> tuple:
        return (self.alias, self.column, self.op, str(self.literal))


@dataclass(frozen=True)
class Query:
    """A COUNT(*) conjunctive query: three sets, stored canonically sorted."""

    tables: tuple[TableRef, ...]
    joins: tuple[JoinEdge, ...] = ()
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(sorted(self.tables)))
        object.__setattr__(self, "joins", tuple(sorted(self.joins)))
        object.__setattr__(
            self,
            "predicates",
            tuple(sorted(self.predicates, key=Predicate.sort_key)),
        )
        if not self.tables:
            raise QueryError("a query needs at least one table")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in {aliases}")
        alias_set = set(aliases)
        for join in self.joins:
            missing = join.aliases - alias_set
            if missing:
                raise QueryError(f"join {join} references unknown aliases {missing}")
        for pred in self.predicates:
            if pred.alias not in alias_set:
                raise QueryError(
                    f"predicate {pred} references unknown alias {pred.alias!r}"
                )
        # The serving fast paths (result cache, dedup map, batch slot
        # collapsing) hash each query several times per request, and the
        # generated dataclass hash walks three tuples of nested frozen
        # dataclasses every call.  The fields are immutable after
        # canonicalization, so hash once here.
        object.__setattr__(
            self, "_hash", hash((self.tables, self.joins, self.predicates))
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.tables]

    def alias_table(self, alias: str) -> str:
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise QueryError(f"unknown alias {alias!r}")

    def predicates_for(self, alias: str) -> list[Predicate]:
        return [p for p in self.predicates if p.alias == alias]

    def joins_for(self, alias: str) -> list[JoinEdge]:
        return [j for j in self.joins if alias in j.aliases]

    @property
    def num_joins(self) -> int:
        return len(self.joins)

    # ------------------------------------------------------------------
    # validation against a database
    # ------------------------------------------------------------------
    def validate(self, db: "Database") -> None:
        """Check every table/column reference and literal type against ``db``.

        Raises :class:`~repro.errors.QueryError` on the first problem.
        """
        for ref in self.tables:
            if ref.table not in db.tables:
                raise QueryError(f"unknown table {ref.table!r}")
        for join in self.joins:
            for alias in (join.left_alias, join.right_alias):
                table = db.table(self.alias_table(alias))
                column_name = join.side_for(alias)
                if not table.schema.has_column(column_name):
                    raise QueryError(
                        f"join {join}: table {table.name!r} has no column "
                        f"{column_name!r}"
                    )
                if not table.schema.column(column_name).dtype.is_numeric:
                    raise QueryError(
                        f"join {join}: column {table.name}.{column_name} "
                        "is not numeric (string joins are unsupported)"
                    )
        for pred in self.predicates:
            table = db.table(self.alias_table(pred.alias))
            if not table.schema.has_column(pred.column):
                raise QueryError(
                    f"predicate {pred}: table {table.name!r} has no column "
                    f"{pred.column!r}"
                )
            # encode_literal raises QueryError on type mismatch.
            column = table.column(pred.column)
            if pred.op == "in":
                for member in pred.literal:
                    column.encode_literal(member)
            else:
                column.encode_literal(pred.literal)

    # ------------------------------------------------------------------
    # SQL rendering (lazy import: repro.db.sql imports this module)
    # ------------------------------------------------------------------
    def to_sql(self) -> str:
        from .sql import to_sql

        return to_sql(self)

    def __str__(self) -> str:
        return self.to_sql()


def single_table_query(
    table: str, alias: str | None = None, predicates: Iterable[Predicate] = ()
) -> Query:
    """Shorthand for a one-table query."""
    alias = alias or table
    return Query(tables=(TableRef(table, alias),), predicates=tuple(predicates))
