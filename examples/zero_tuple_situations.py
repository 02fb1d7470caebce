"""0-tuple situations: where learned sketches beat pure sampling.

Section 2 of the paper: "One advantage of our approach over pure
sampling-based cardinality estimators is that it addresses 0-tuple
situations, which is when no sampled tuples qualify.  In such
situations, sampling-based approaches usually fall back to an
'educated' guess — causing large estimation errors."

This example hunts for such queries (selective predicates that miss the
materialized sample entirely but match real rows), then shows the
estimates of the Deep Sketch, the pure-sampling estimator sharing the
*same* samples, and the true cardinality side by side.

Run with:  python examples/zero_tuple_situations.py
"""

import os
import sys

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import SamplingEstimator  # noqa: E402
from repro.core import SketchConfig, build_sketch  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.db import execute_count  # noqa: E402
from repro.metrics import qerror, summarize_qerrors  # noqa: E402
from repro.sampling import is_zero_tuple  # noqa: E402
from repro.workload import TrainingQueryGenerator, WorkloadSpec, spec_for_imdb  # noqa: E402


def main() -> None:
    db = load_dataset("imdb", scale=1.0)
    sketch, _ = build_sketch(
        db,
        spec_for_imdb(),
        name="zero-tuple-demo",
        config=SketchConfig(
            sample_size=1000, n_training_queries=8000, epochs=15, hidden_units=64
        ),
    )
    # The sampling estimator uses the sketch's own samples: identical
    # information, the only difference is the learned model.
    sampler = SamplingEstimator(db, samples=sketch.samples)

    base = spec_for_imdb()
    spec = WorkloadSpec(
        tables=base.tables,
        aliases=base.aliases,
        predicate_columns=base.predicate_columns,
        literal_distribution="distinct",  # tail literals miss samples often
    )
    generator = TrainingQueryGenerator(db, spec, seed=31)

    print("hunting for 0-tuple queries (predicates missing all 1000 samples)...\n")
    found = []
    while len(found) < 12:
        query = generator.draw()
        if not query.predicates or not is_zero_tuple(sketch.samples, query):
            continue
        truth = execute_count(db, query)
        if truth == 0:
            continue
        found.append((query, truth))

    print(f"{'truth':>8} {'sketch':>9} {'sampling':>9}  {'q(sketch)':>9} {'q(sampl)':>9}")
    sketch_errors, sampling_errors = [], []
    for query, truth in found:
        est_sketch = sketch.estimate(query)
        est_sampling = sampler.estimate(query)
        q_sketch = qerror(est_sketch, truth)
        q_sampling = qerror(est_sampling, truth)
        sketch_errors.append(q_sketch)
        sampling_errors.append(q_sampling)
        print(
            f"{truth:>8} {est_sketch:>9.1f} {est_sampling:>9.1f}"
            f"  {q_sketch:>9.1f} {q_sampling:>9.1f}"
        )

    print("\nsummary over the 0-tuple slice:")
    print(f"  Deep Sketch : {summarize_qerrors(sketch_errors)}")
    print(f"  Sampling    : {summarize_qerrors(sampling_errors)}")
    ratio = np.mean(sampling_errors) / np.mean(sketch_errors)
    print(f"\nthe learned model is {ratio:.1f}x more accurate (mean q-error) here")


if __name__ == "__main__":
    main()
