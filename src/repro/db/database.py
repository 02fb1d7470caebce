"""Database container: tables plus the PK/FK catalog."""

from __future__ import annotations

from ..errors import SchemaError
from .schema import ForeignKey
from .table import Table


class Database:
    """A set of tables and the foreign keys connecting them.

    The FK catalog powers two features of the demo: automatic join
    predicates when the user selects multiple tables, and join-graph
    validation for generated queries.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: dict[str, Table] = {}
        self.foreign_keys: list[ForeignKey] = []

    # ------------------------------------------------------------------
    # catalog maintenance
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        return table

    def add_foreign_key(self, fk: ForeignKey) -> ForeignKey:
        for side_table, side_column in (
            (fk.table, fk.column),
            (fk.ref_table, fk.ref_column),
        ):
            if side_table not in self.tables:
                raise SchemaError(f"foreign key references unknown table {side_table!r}")
            if not self.tables[side_table].schema.has_column(side_column):
                raise SchemaError(
                    f"foreign key references unknown column "
                    f"{side_table}.{side_column}"
                )
        self.foreign_keys.append(fk)
        return fk

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            known = ", ".join(sorted(self.tables))
            raise SchemaError(f"unknown table {name!r}; known tables: {known}") from None

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def total_rows(self) -> int:
        return sum(t.n_rows for t in self.tables.values())

    # ------------------------------------------------------------------
    # join topology
    # ------------------------------------------------------------------
    def foreign_keys_between(self, table_a: str, table_b: str) -> list[ForeignKey]:
        """All FKs connecting two tables, in either direction."""
        return [
            fk
            for fk in self.foreign_keys
            if {fk.table, fk.ref_table} == {table_a, table_b}
        ]

    def join_edge_between(self, table_a: str, table_b: str) -> ForeignKey:
        """The single PK/FK relationship between two tables.

        The demo UI adds join predicates automatically and relies on
        there being exactly one relationship per table pair (the paper
        notes "the single PK/FK relationships that exist between tables").
        """
        edges = self.foreign_keys_between(table_a, table_b)
        if not edges:
            raise SchemaError(f"no foreign key connects {table_a!r} and {table_b!r}")
        if len(edges) > 1:
            raise SchemaError(
                f"ambiguous join between {table_a!r} and {table_b!r}: "
                f"{[str(e) for e in edges]}"
            )
        return edges[0]

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, tables={len(self.tables)}, "
            f"fks={len(self.foreign_keys)})"
        )
