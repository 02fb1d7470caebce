"""The paper's running example: keyword popularity over time.

Section 1 motivates Deep Sketches with a movie producer asking how
popular a certain keyword is per production year:

    SELECT COUNT(*)
    FROM title t, movie_keyword mk, keyword k
    WHERE mk.movie_id=t.id AND mk.keyword_id=k.id
    AND k.keyword='artificial-intelligence'
    AND t.production_year=?

This example builds a sketch, defines that query as a template with a
placeholder on ``production_year``, groups it by decade (the demo's
"EXTRACT(YEAR FROM ...)"-style function), and prints the Figure 2 chart
data: Deep Sketch vs HyPer vs PostgreSQL vs the true cardinality.

The dimension-table hop (keyword name -> keyword_id) is resolved against
the database first, exactly like the demo's UI resolves clicked values,
so the sketch itself only sees its JOB-light table subset.

Run with:  python examples/movie_keyword_trend.py
"""

import os
import sys

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import HyperEstimator, PostgresEstimator, TruthEstimator  # noqa: E402
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.demo import run_template  # noqa: E402
from repro.workload import (  # noqa: E402
    JoinEdge,
    Predicate,
    Query,
    QueryTemplate,
    TableRef,
    spec_for_imdb,
)

KEYWORD = "artificial-intelligence"


def keyword_id_for(db, name: str) -> int:
    """Resolve a keyword string to its id (the demo UI's lookup step)."""
    keyword = db.table("keyword").column("keyword")
    code = keyword.encode_literal(name)
    if code is None:
        raise SystemExit(f"keyword {name!r} not in the database")
    row = int(np.flatnonzero(keyword.values == code)[0])
    return int(db.table("keyword").column("id").values[row])


def main() -> None:
    db = load_dataset("imdb", scale=1.0)
    kw_id = keyword_id_for(db, KEYWORD)
    print(f"keyword {KEYWORD!r} has id {kw_id}")

    sketch, report = build_sketch(
        db,
        spec_for_imdb(),
        name="keyword-trend",
        config=SketchConfig(
            sample_size=1000, n_training_queries=8000, epochs=15, hidden_units=64
        ),
    )
    print(
        f"sketch trained in {report.total_seconds:.0f}s, "
        f"validation mean q-error {report.training.final_val_mean_qerror:.2f}"
    )

    base = Query(
        tables=(TableRef("title", "t"), TableRef("movie_keyword", "mk")),
        joins=(JoinEdge("mk", "movie_id", "t", "id"),),
        predicates=(Predicate("mk", "keyword_id", "=", kw_id),),
    )
    template = QueryTemplate(base=base, alias="t", column="production_year")

    estimators = [
        TruthEstimator(db),
        HyperEstimator(db, sample_size=1000),
        PostgresEstimator(db),
    ]
    result = run_template(sketch, template, estimators, mode="width", width=10)

    print(f"\n{KEYWORD!r} mentions per decade (Figure 2 chart data):\n")
    print(result.as_table())
    print("\nq-error vs truth, per system:")
    for system in (sketch.name, "HyPer", "PostgreSQL"):
        summary = result.qerror_summary(system)
        print(f"  {system:<16} median {summary.median:7.2f}  mean {summary.mean:7.2f}")


if __name__ == "__main__":
    main()
