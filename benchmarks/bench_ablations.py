"""Ablations of the design choices DESIGN.md calls out.

Not a paper table, but the paper (and the companion CIDR paper it
defers to) motivates three specific choices that these harnesses
quantify on our substrate:

* **sample bitmaps as model input** — the demo paper's differentiator
  over prior learned estimators ("we featurize information about
  qualifying base table samples");
* **q-error training objective** — "we train our model with the
  objective of minimizing the mean q-error", vs plain MSE on the
  normalized labels;
* **materialized sample size** — the per-table sample count is a user
  knob in sketch creation (step 1); more samples mean better bitmaps
  but a bigger footprint.
"""

from __future__ import annotations

import numpy as np

from repro.core import SketchBuilder, SketchConfig
from repro.datasets import ImdbConfig, generate_imdb
from repro.db import execute_counts
from repro.metrics import geometric_mean_qerror, qerrors
from repro.workload import JobLightConfig, generate_job_light, spec_for_imdb

from conftest import write_result

_TABLES = ("title", "movie_keyword", "movie_info", "cast_info")


def _setup_db():
    return generate_imdb(ImdbConfig(scale=0.25, seed=7))


def _build_variant(db, **overrides):
    config = SketchConfig(
        n_training_queries=4000,
        epochs=12,
        sample_size=overrides.pop("sample_size", 300),
        hidden_units=64,
        seed=3,
        **overrides,
    )
    builder = SketchBuilder(db, spec_for_imdb(tables=_TABLES), config=config)
    return builder.build("ablation")


def _eval_workload(db):
    queries = generate_job_light(db, JobLightConfig(n_queries=40, seed=21))
    queries = [
        q for q in queries if all(t.table in _TABLES for t in q.tables)
    ]
    truths = np.array([float(max(c, 1)) for c in execute_counts(db, queries)])
    return queries, truths


def _score(sketch, queries, truths):
    return geometric_mean_qerror(qerrors(sketch.estimate_many(queries), truths))


def test_ablation_sample_bitmaps(benchmark):
    """Bitmaps on vs off: runtime sampling must carry real signal."""
    db = _setup_db()
    queries, truths = _eval_workload(db)

    def run():
        with_bitmaps, _ = _build_variant(db, use_sample_bitmaps=True)
        without_bitmaps, _ = _build_variant(db, use_sample_bitmaps=False)
        return (
            _score(with_bitmaps, queries, truths),
            _score(without_bitmaps, queries, truths),
        )

    score_with, score_without = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation — qualifying-sample bitmaps (geometric-mean q-error):\n"
        f"  with bitmaps    {score_with:8.2f}\n"
        f"  without bitmaps {score_without:8.2f}"
    )
    print("\n" + text)
    write_result("ablation_bitmaps", text)
    benchmark.extra_info["with"] = round(score_with, 3)
    benchmark.extra_info["without"] = round(score_without, 3)
    assert score_with <= score_without * 1.1, "bitmaps should not hurt"


def test_ablation_qerror_vs_mse_loss(benchmark):
    """The paper's q-error objective vs MSE on normalized labels."""
    db = _setup_db()
    queries, truths = _eval_workload(db)

    def run():
        qerr_sketch, qerr_report = _build_variant(db, loss="qerror")
        mse_sketch, mse_report = _build_variant(db, loss="mse")
        return (
            _score(qerr_sketch, queries, truths),
            _score(mse_sketch, queries, truths),
            qerr_report.training.final_val_mean_qerror,
            mse_report.training.final_val_mean_qerror,
        )

    q_eval, mse_eval, q_val, mse_val = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation — training objective (geometric-mean q-error on eval / "
        "final val mean q-error):\n"
        f"  q-error loss {q_eval:8.2f} / {q_val:8.2f}\n"
        f"  MSE loss     {mse_eval:8.2f} / {mse_val:8.2f}"
    )
    print("\n" + text)
    write_result("ablation_loss", text)
    benchmark.extra_info["qerror_loss"] = round(q_eval, 3)
    benchmark.extra_info["mse_loss"] = round(mse_eval, 3)
    # Both objectives must train a usable model; the q-error loss must be
    # in the same accuracy class as MSE (at paper scale it wins on the
    # tail, at this reduced scale the two are close).
    assert q_val < 10.0 and mse_val < 10.0
    assert q_eval < 2.0 * mse_eval


def test_ablation_sample_size(benchmark):
    """Sample-size knob: bigger samples -> better estimates, larger
    footprint (the step-1 trade-off the demo exposes to users)."""
    db = _setup_db()
    queries, truths = _eval_workload(db)
    sizes = [50, 200, 800]

    def run():
        scores, footprints = [], []
        for size in sizes:
            sketch, _ = _build_variant(db, sample_size=size)
            scores.append(_score(sketch, queries, truths))
            footprints.append(sketch.footprint_bytes())
        return scores, footprints

    scores, footprints = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — materialized sample size:"]
    for size, score, footprint in zip(sizes, scores, footprints):
        lines.append(
            f"  {size:>5} samples/table  gmean q-error {score:7.2f}  "
            f"footprint {footprint / 1024:7.0f} KiB"
        )
        benchmark.extra_info[f"samples_{size}"] = round(score, 3)
    text = "\n".join(lines)
    print("\n" + text)
    write_result("ablation_sample_size", text)
    # Footprint grows with the sample size...
    assert footprints[-1] > footprints[0]
    # ...and accuracy must not collapse when samples grow.
    assert scores[-1] <= scores[0] * 1.5
