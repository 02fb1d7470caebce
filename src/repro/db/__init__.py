"""In-memory columnar relational engine (the repo's HyPer substitute).

Provides exact ``SELECT COUNT(*)`` execution over equi-join + predicate
queries, a PK/FK catalog, per-column statistics, and a SQL subset
parser/printer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".column": ("Column",),
        ".database": ("Database",),
        ".executor": (
            "count_hash_join",
            "execute_count",
            "execute_counts",
            "table_filter_mask",
        ),
        ".schema": ("ColumnSchema", "ForeignKey", "TableSchema"),
        ".sql": ("as_query", "parse_sql", "to_sql"),
        ".statistics": (
            "ColumnStatistics",
            "TableStatistics",
            "analyze_column",
            "analyze_database",
            "analyze_table",
        ),
        ".table": ("Table",),
        ".types": ("DType", "OPERATORS", "STRING_OPERATORS"),
    },
)

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
    "count_hash_join",
    "table_filter_mask",
    "as_query",
    "parse_sql",
    "to_sql",
    "analyze_column",
    "analyze_table",
    "analyze_database",
    "ColumnStatistics",
    "TableStatistics",
]
