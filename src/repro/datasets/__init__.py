"""Synthetic datasets standing in for the demo's IMDb and TPC-H data."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".imdb": (
            "ImdbConfig",
            "JOB_LIGHT_ALIASES",
            "JOB_LIGHT_PREDICATE_COLUMNS",
            "KIND_NAMES",
            "NAMED_KEYWORDS",
            "generate_imdb",
        ),
        ".registry": (
            "clear_dataset_cache",
            "dataset_names",
            "load_dataset",
            "register_dataset",
        ),
        ".tpch": (
            "TPCH_ALIASES",
            "TPCH_PREDICATE_COLUMNS",
            "TpchConfig",
            "generate_tpch",
        ),
        ".validation": (
            "CorrelationReport",
            "analyze_imdb_correlations",
            "cramers_v",
            "decorrelated_imdb",
        ),
    },
)

__all__ = [
    "ImdbConfig",
    "generate_imdb",
    "JOB_LIGHT_ALIASES",
    "JOB_LIGHT_PREDICATE_COLUMNS",
    "KIND_NAMES",
    "NAMED_KEYWORDS",
    "TpchConfig",
    "generate_tpch",
    "TPCH_ALIASES",
    "TPCH_PREDICATE_COLUMNS",
    "load_dataset",
    "register_dataset",
    "dataset_names",
    "clear_dataset_cache",
    "CorrelationReport",
    "analyze_imdb_correlations",
    "cramers_v",
    "decorrelated_imdb",
]
