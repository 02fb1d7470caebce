"""Baseline cardinality estimators the paper compares against."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".hyper": ("HyperEstimator",),
        ".postgres": (
            "DEFAULT_EQ_SEL",
            "DEFAULT_INEQ_SEL",
            "PostgresEstimator",
            "eq_selectivity",
            "predicate_selectivity",
            "range_selectivity",
        ),
        ".sampling_only": ("SamplingEstimator",),
        ".truth": ("TruthEstimator",),
    },
)

__all__ = [
    "TruthEstimator",
    "SamplingEstimator",
    "HyperEstimator",
    "PostgresEstimator",
    "eq_selectivity",
    "range_selectivity",
    "predicate_selectivity",
    "DEFAULT_EQ_SEL",
    "DEFAULT_INEQ_SEL",
]
