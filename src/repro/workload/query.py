"""The query model, re-exported from its home in :mod:`repro.db.query`.

The executor, the SQL parser and the generators all speak this model;
it lives in ``repro.db`` so that the engine imports nothing from the
packages above it.
"""

from ..db.query import (
    JoinEdge,
    Literal,
    Predicate,
    Query,
    TableRef,
    make_join,
    single_table_query,
)

__all__ = [
    "Query",
    "TableRef",
    "JoinEdge",
    "Predicate",
    "Literal",
    "make_join",
    "single_table_query",
]
