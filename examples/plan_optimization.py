"""Feeding Deep Sketch estimates to a query optimizer.

Section 1 of the paper: "The estimates produced by Deep Sketches can
directly be leveraged by existing, sophisticated join enumeration
algorithms and cost models."  This example does exactly that: it builds
a sketch, plugs it into the DP join enumerator under the C_out cost
model, and compares the chosen join orders (and their true costs)
against plans picked with PostgreSQL-style estimates and with perfect
estimates.

Run with:  python examples/plan_optimization.py
"""

import os
import sys

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import PostgresEstimator, TruthEstimator  # noqa: E402
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.optimizer import PlanOptimizer  # noqa: E402
from repro.workload import JobLightConfig, generate_job_light, spec_for_imdb  # noqa: E402


def main() -> None:
    db = load_dataset("imdb", scale=0.5)
    sketch, _ = build_sketch(
        db,
        spec_for_imdb(),
        name="optimizer-input",
        config=SketchConfig(
            n_training_queries=6000, epochs=12, sample_size=500, hidden_units=64
        ),
    )

    optimizers = {
        "Deep Sketch": PlanOptimizer(db, sketch),
        "PostgreSQL": PlanOptimizer(db, PostgresEstimator(db)),
        "True cards": PlanOptimizer(db, TruthEstimator(db)),
    }

    queries = [
        q
        for q in generate_job_light(db, JobLightConfig(n_queries=30, seed=17))
        if q.num_joins >= 3
    ][:5]

    for i, query in enumerate(queries, start=1):
        print(f"query {i}: {query.to_sql()[:90]}...")
        for name, optimizer in optimizers.items():
            planned = optimizer.optimize(query)
            true_cost = optimizer.true_cost_of(planned)
            print(
                f"  {name:<12} plan {str(planned.plan):<38} "
                f"true C_out {true_cost:12.0f}"
            )
        print()

    factors = {
        name: np.mean([opt.plan_quality_factor(q) for q in queries])
        for name, opt in optimizers.items()
    }
    print("mean plan-quality factor (1.0 = always the optimal join order):")
    for name, factor in factors.items():
        print(f"  {name:<12} {factor:.3f}")


if __name__ == "__main__":
    main()
