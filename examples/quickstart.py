"""Quickstart: build a Deep Sketch and estimate ad-hoc SQL queries.

Walks the paper's Figure 1 end to end on the synthetic IMDb:

1. load a dataset and define a sketch (tables + parameters),
2. watch the four creation stages run (generate / execute / train),
3. issue ad-hoc SQL queries against the trained sketch,
4. compare against the true cardinality and the traditional estimators.

Run with:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import HyperEstimator, PostgresEstimator  # noqa: E402
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.db import execute_count, parse_sql  # noqa: E402
from repro.metrics import qerror  # noqa: E402
from repro.workload import spec_for_imdb  # noqa: E402


def main() -> None:
    # -- 1. dataset and sketch definition -----------------------------
    db = load_dataset("imdb", scale=0.5)
    spec = spec_for_imdb()  # the six JOB-light tables
    config = SketchConfig(
        sample_size=500,
        n_training_queries=10_000,
        epochs=18,
        hidden_units=64,
    )
    print(f"database: {db.name} with {db.total_rows():,} rows")
    print(f"sketch over tables: {', '.join(spec.tables)}")

    # -- 2. creation with progress reporting --------------------------
    def progress(event):
        if event.stage == "train":
            print(f"  [train] {event.message}")
        elif event.current == event.total:
            print(f"  [{event.stage}] done")

    sketch, report = build_sketch(db, spec, name="quickstart", config=config, progress=progress)
    print(
        f"built in {report.total_seconds:.1f}s "
        f"({report.n_zero_cardinality_dropped} empty-result training queries dropped)"
    )
    print(f"footprint: {sketch.footprint_bytes() / 1024:.0f} KiB\n")

    # -- 3 + 4. ad-hoc queries with comparisons ------------------------
    hyper = HyperEstimator(db, sample_size=500)
    postgres = PostgresEstimator(db)
    queries = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year>2010;",
        "SELECT COUNT(*) FROM title t, movie_keyword mk "
        "WHERE mk.movie_id=t.id AND t.production_year=2015;",
        "SELECT COUNT(*) FROM title t, movie_companies mc, cast_info ci "
        "WHERE mc.movie_id=t.id AND ci.movie_id=t.id "
        "AND mc.company_type_id=2 AND ci.role_id=1 AND t.production_year>2000;",
    ]
    header = f"{'truth':>10} {'sketch':>10} {'hyper':>10} {'postgres':>10}   query"
    print(header)
    print("-" * len(header))
    for sql in queries:
        query = parse_sql(sql)
        truth = execute_count(db, query)
        est_sketch = sketch.estimate(query)
        est_hyper = hyper.estimate(query)
        est_pg = postgres.estimate(query)
        print(
            f"{truth:>10} {est_sketch:>10.0f} {est_hyper:>10.0f} {est_pg:>10.0f}"
            f"   {sql[22:70]}..."
        )
        print(
            f"{'q-error:':>10} {qerror(est_sketch, truth):>10.2f} "
            f"{qerror(est_hyper, truth):>10.2f} {qerror(est_pg, truth):>10.2f}"
        )


if __name__ == "__main__":
    main()
