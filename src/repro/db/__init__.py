"""In-memory columnar relational engine (the repo's HyPer substitute).

Provides exact ``SELECT COUNT(*)`` execution over equi-join + predicate
queries, a PK/FK catalog, per-column statistics, and a SQL subset
parser/printer.
"""

from .column import Column
from .database import Database
from .executor import (
    count_factorized,
    count_hash_join,
    execute_count,
    execute_counts,
    table_filter_mask,
)
from .schema import ColumnSchema, ForeignKey, TableSchema
from .sql import parse_sql, to_sql
from .statistics import (
    ColumnStatistics,
    TableStatistics,
    analyze_column,
    analyze_database,
    analyze_table,
)
from .table import Table
from .types import DType, OPERATORS, STRING_OPERATORS

__all__ = [
    "Column",
    "Table",
    "Database",
    "ColumnSchema",
    "TableSchema",
    "ForeignKey",
    "DType",
    "OPERATORS",
    "STRING_OPERATORS",
    "execute_count",
    "execute_counts",
    "count_factorized",
    "count_hash_join",
    "table_filter_mask",
    "parse_sql",
    "to_sql",
    "analyze_column",
    "analyze_table",
    "analyze_database",
    "ColumnStatistics",
    "TableStatistics",
]
