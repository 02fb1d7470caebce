"""Deep Sketches on TPC-H — the demo's second dataset.

Builds a sketch over the customer/orders/lineitem core of the TPC-H
schema, then uses a query template with a placeholder on the order date
grouped by ~year (the demo's Date-column grouping: "for columns with
many distinct values — such as Date columns, users may want to 'group'
the results by year"), previewing order volumes per year without
executing the queries.

Run with:  python examples/tpch_sketch.py
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import PostgresEstimator, TruthEstimator  # noqa: E402
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.demo import run_template  # noqa: E402
from repro.workload import (  # noqa: E402
    JoinEdge,
    Predicate,
    Query,
    QueryTemplate,
    TableRef,
    spec_for_tpch,
)

#: The synthetic TPC-H encodes dates as day numbers; 365 days ~ one year.
DAYS_PER_YEAR = 365


def main() -> None:
    db = load_dataset("tpch", scale=1.0)
    spec = spec_for_tpch(tables=("customer", "orders", "lineitem"))
    sketch, report = build_sketch(
        db,
        spec,
        name="tpch-core",
        config=SketchConfig(
            sample_size=500, n_training_queries=4000, epochs=12, hidden_units=64
        ),
    )
    print(
        f"sketch over {spec.tables} trained in {report.total_seconds:.0f}s, "
        f"validation mean q-error {report.training.final_val_mean_qerror:.2f}"
    )

    # Ad-hoc query first: large high-quantity orders.
    sql = (
        "SELECT COUNT(*) FROM orders o, lineitem l "
        "WHERE l.l_orderkey=o.o_orderkey AND l.l_quantity>45 "
        "AND o.o_orderpriority=1;"
    )
    from repro.db import execute_count, parse_sql

    estimate = sketch.estimate(sql)
    truth = execute_count(db, parse_sql(sql))
    print(f"\nad-hoc query estimate {estimate:.0f} vs truth {truth}")

    # Template: urgent-order volume per year of order date.
    base = Query(
        tables=(TableRef("orders", "o"), TableRef("lineitem", "l")),
        joins=(JoinEdge("l", "l_orderkey", "o", "o_orderkey"),),
        predicates=(Predicate("o", "o_orderpriority", "=", 1),),
    )
    template = QueryTemplate(base=base, alias="o", column="o_orderdate")
    result = run_template(
        sketch,
        template,
        [TruthEstimator(db), PostgresEstimator(db)],
        mode="width",
        width=DAYS_PER_YEAR,
    )
    print("\nurgent-order lineitems per order year (grouped by 365-day bins):\n")
    print(result.as_table())


if __name__ == "__main__":
    main()
