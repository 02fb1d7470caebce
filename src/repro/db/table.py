"""Tables: a schema plus columnar data."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import SchemaError
from ..rng import SeedLike, make_rng
from .column import Column
from .schema import TableSchema


class Table:
    """An immutable in-memory table.

    Data is held column-wise; every column must match the schema's
    declared name/order and share one row count.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, Column]):
        self.schema = schema
        self.columns: dict[str, Column] = {}
        n_rows: int | None = None
        for decl in schema.columns:
            if decl.name not in columns:
                raise SchemaError(
                    f"table {schema.name!r}: missing data for column {decl.name!r}"
                )
            col = columns[decl.name]
            if col.dtype is not decl.dtype:
                raise SchemaError(
                    f"table {schema.name!r} column {decl.name!r}: "
                    f"declared {decl.dtype}, got {col.dtype}"
                )
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"table {schema.name!r}: column {decl.name!r} has "
                    f"{len(col)} rows, expected {n_rows}"
                )
            if not decl.nullable and not col.valid.all():
                raise SchemaError(
                    f"table {schema.name!r}: non-nullable column {decl.name!r} "
                    "contains NULLs"
                )
            self.columns[decl.name] = col
        extras = set(columns) - set(self.columns)
        if extras:
            raise SchemaError(
                f"table {schema.name!r}: undeclared columns {sorted(extras)}"
            )
        self.n_rows = n_rows or 0
        self._check_primary_key()

    def _check_primary_key(self) -> None:
        pk = self.schema.primary_key
        if pk is None or self.n_rows == 0:
            return
        col = self.columns[pk]
        if not col.valid.all():
            raise SchemaError(f"primary key {self.name}.{pk} contains NULLs")
        if np.unique(col.values).size != self.n_rows:
            raise SchemaError(f"primary key {self.name}.{pk} contains duplicates")

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.n_rows}, cols={len(self.columns)})"

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset as a new Table (used to materialize samples)."""
        return Table(
            self.schema, {name: col.take(indices) for name, col in self.columns.items()}
        )

    def sample_rows(self, n: int, rng: SeedLike = None) -> np.ndarray:
        """Sorted row ids of a uniform sample without replacement of
        ``min(n, n_rows)`` rows."""
        gen = make_rng(rng)
        size = min(int(n), self.n_rows)
        return np.sort(gen.choice(self.n_rows, size=size, replace=False))

    def sample(self, n: int, rng: SeedLike = None) -> "Table":
        """The rows :meth:`sample_rows` draws, as a new Table."""
        return self.take(self.sample_rows(n, rng))

    def row(self, index: int) -> dict:
        """Decode one row to a python dict (debugging / template drawing)."""
        return {name: col.decode(index) for name, col in self.columns.items()}
