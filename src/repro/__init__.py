"""Deep Sketches: learned cardinality estimation for SQL queries.

A from-scratch reproduction of *Estimating Cardinalities with Deep
Sketches* (Kipf et al., SIGMOD 2019) and the MSCN model it wraps
(Kipf et al., CIDR 2019), including every substrate the paper relies
on: a numpy autodiff/neural-network stack, an in-memory relational
engine with exact COUNT(*) execution, synthetic IMDb/TPC-H datasets,
sampling with qualifying bitmaps, and HyPer-/PostgreSQL-style baseline
estimators.

Quickstart::

    from repro import datasets, workload, core

    db = datasets.load_dataset("imdb", scale=0.25)
    spec = workload.spec_for_imdb()
    sketch, report = core.build_sketch(
        db, spec, name="demo",
        config=core.SketchConfig(n_training_queries=2000, epochs=10),
    )
    sketch.estimate("SELECT COUNT(*) FROM title t, movie_keyword mk "
                    "WHERE mk.movie_id=t.id AND t.production_year>2010;")
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".core": ("DeepSketch", "SketchConfig", "build_sketch"),
        ".errors": ("ReproError",),
        ".metrics": ("QErrorSummary", "qerror", "summarize_qerrors"),
    },
    submodules=(
        "baselines",
        "core",
        "datasets",
        "db",
        "demo",
        "metrics",
        "nn",
        "optimizer",
        "sampling",
        "serve",
        "workload",
    ),
)

__version__ = "1.0.0"

__all__ = [
    "baselines",
    "core",
    "datasets",
    "db",
    "demo",
    "metrics",
    "nn",
    "optimizer",
    "sampling",
    "serve",
    "workload",
    "DeepSketch",
    "SketchConfig",
    "build_sketch",
    "ReproError",
    "QErrorSummary",
    "qerror",
    "summarize_qerrors",
]
