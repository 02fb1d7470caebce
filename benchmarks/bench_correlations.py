"""Correlation ablation — is the Table 1 gap really about correlations?

The paper attributes the baselines' failures to IMDb being "a real-world
dataset that contains many correlations" and states the goal of showing
that "a learned cardinality model can compete with and even outperform
traditional cardinality estimators, **especially for highly correlated
data**".

This harness tests that attribution directly: it runs the same
JOB-light-style comparison on (a) the correlated synthetic IMDb (the
Table 1 fixtures) and (b) a *decorrelated* copy with identical marginal
distributions (``repro.datasets.decorrelated_imdb``).  If the paper's
story is right, the traditional estimators' tail errors must collapse
on (b) while remaining large on (a).
"""

from __future__ import annotations

import numpy as np

from repro.baselines import HyperEstimator, PostgresEstimator
from repro.core import build_sketch
from repro.datasets import analyze_imdb_correlations, decorrelated_imdb
from repro.db import execute_counts
from repro.metrics import qerrors, summarize_qerrors
from repro.workload import JobLightConfig, generate_job_light, spec_for_imdb

from conftest import TABLE1_CONFIG, write_result


def _compare_systems(db, sketch, queries):
    truths = np.array([float(max(c, 1)) for c in execute_counts(db, queries)])
    systems = {
        "Deep Sketch": sketch.estimate_many(queries),
        "HyPer": HyperEstimator(db, sample_size=1000).estimate_many(queries),
        "PostgreSQL": PostgresEstimator(db).estimate_many(queries),
    }
    return {
        name: summarize_qerrors(qerrors(est, truths))
        for name, est in systems.items()
    }


def test_correlation_ablation(
    benchmark, imdb_full, table1_sketch, joblight_workload
):
    sketch, _ = table1_sketch
    queries, truths = joblight_workload

    report_before = analyze_imdb_correlations(imdb_full)
    assert report_before.is_correlated()

    def run():
        # (a) correlated: the Table 1 artifacts, reused.
        correlated = _compare_systems(imdb_full, sketch, queries)
        # (b) decorrelated: same marginals, dependence destroyed; a fresh
        # sketch is trained on it with the identical configuration.
        flat = decorrelated_imdb(imdb_full, seed=3)
        flat_queries = generate_job_light(
            flat, JobLightConfig(n_queries=70, seed=42)
        )
        flat_sketch, _ = build_sketch(
            flat, spec_for_imdb(), name="decorrelated", config=TABLE1_CONFIG
        )
        decorrelated = _compare_systems(flat, flat_sketch, flat_queries)
        return correlated, decorrelated, analyze_imdb_correlations(flat)

    correlated, decorrelated, report_after = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert not report_after.is_correlated()

    lines = ["Correlation ablation (p95 / mean q-error):"]
    lines.append(f"  {'system':<14} {'correlated':>22} {'decorrelated':>22}")
    for name in ("Deep Sketch", "HyPer", "PostgreSQL"):
        c, d = correlated[name], decorrelated[name]
        lines.append(
            f"  {name:<14} {c.p95:>12.2f}/{c.mean:>8.2f} {d.p95:>13.2f}/{d.mean:>8.2f}"
        )
        benchmark.extra_info[name] = {
            "correlated_p95": round(c.p95, 2),
            "decorrelated_p95": round(d.p95, 2),
        }
    lines.append(
        f"  (dependence audit: kind/year V {report_before.kind_year_cramers_v:.2f}"
        f" -> {report_after.kind_year_cramers_v:.2f}, keyword/era rho "
        f"{report_before.keyword_era_spearman:.2f} -> "
        f"{report_after.keyword_era_spearman:.2f})"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_result("correlation_ablation", text)

    # The attribution check: traditional estimators' tails must shrink
    # substantially once correlations are removed...
    for name in ("HyPer", "PostgreSQL"):
        assert decorrelated[name].p95 < 0.7 * correlated[name].p95, name
    # ...while on correlated data the sketch holds its Table 1 edge.
    assert correlated["Deep Sketch"].p95 <= correlated["HyPer"].p95
    assert correlated["Deep Sketch"].p95 <= correlated["PostgreSQL"].p95
