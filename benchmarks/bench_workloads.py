"""Templated workloads: template-level generalization splits.

The paper's headline claim is that the learned estimator generalizes to
queries it was not trained on.  A uniform query split only tests
held-out *literals*; the DSB-style methodology splits by *template*, so
the test side contains join/predicate shapes the model never saw.  This
harness quantifies both:

* the **suite** — a seeded :class:`~repro.workload.suite.TemplateSuite`
  over the synthetic IMDb (range, string, IN, and BETWEEN-style
  predicate slots; join chains up to ``--max-joins`` deep, including
  self-joins), labeled with exact cardinalities, with a regeneration
  determinism check (same seed ⇒ byte-identical digest);
* the **generalization experiment** — one sketch trained on the
  training templates' instances, per-template q-error tails
  (p50/p95/p99/max) reported for held-out literals (**in-template**)
  and held-out templates (**cross-template**); the cross-template p99
  is the worst per-template p99, never an average.

The same suite replayed as bursty open-loop traffic against a gateway
fleet is ``examples/workload_stress.py``.

Correctness gates (determinism, both splits reported) run in **every**
configuration; there are no wall-clock gates — the q-error *quality* of
a tiny sketch is reported, not gated, because a 2-epoch CI model's tails
are noise.

Every run writes machine-readable results to
``benchmarks/results/BENCH_workloads.json`` (sections + config + gates
+ pass) plus the human-readable ``bench_workloads.txt``.

Run from the repository root::

    python benchmarks/bench_workloads.py          # full (minutes)
    python benchmarks/bench_workloads.py --tiny   # CI smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines.postgres import PostgresEstimator  # noqa: E402
from repro.core import SketchConfig, run_generalization_experiment  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.metrics import qerrors, summarize_qerrors  # noqa: E402
from repro.rng import make_rng, spawn  # noqa: E402
from repro.workload import (  # noqa: E402
    SuiteConfig,
    generate_template_suite,
    spec_for_imdb_templates,
)
from repro.workload.splits import (  # noqa: E402
    split_by_template,
    split_within_template,
)

#: The ``--tiny`` smoke configuration: small enough for CI seconds,
#: large enough that both split sides keep several templates.
TINY_WORKLOADS_ARGS = {
    "scale": 0.06,
    "templates": 7,
    "per_template": 24,
    "max_joins": 3,
    "epochs": 2,
    "samples": 50,
    "hidden": 16,
}


def apply_tiny_args(args) -> None:
    """Overwrite an argparse namespace with the tiny smoke configuration."""
    for key, value in TINY_WORKLOADS_ARGS.items():
        setattr(args, key, value)


def _finite_tails(block: dict) -> bool:
    """Every reported tail value is a finite float (no NaN/inf leaks)."""
    for tails in block.values():
        for key in ("p50", "p95", "p99", "max"):
            if not math.isfinite(tails[key]):
                return False
    return True


def _baseline_eval(estimator, suite) -> dict:
    """Per-template q-error tails of a baseline estimator on a suite.

    Mirrors :func:`repro.core.training.evaluate_on_suite` so the
    baseline columns in ``BENCH_workloads.json`` line up one-to-one
    with the learned estimator's blocks.
    """
    queries, cards = suite.labeled_pairs()
    estimates = [estimator.estimate(q) for q in queries]
    errors = qerrors(estimates, cards)
    per_template = {}
    offset = 0
    for entry in suite.templates:
        chunk = errors[offset : offset + len(entry)]
        offset += len(entry)
        summary = summarize_qerrors(chunk)
        per_template[entry.name] = {
            "p50": summary.median,
            "p95": summary.p95,
            "p99": summary.p99,
            "max": summary.max,
            "count": summary.count,
        }
    return {
        "per_template": per_template,
        "overall": summarize_qerrors(errors).as_dict(),
    }


def run(args) -> int:
    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    spec = spec_for_imdb_templates(max_joins=args.max_joins)
    suite_config = SuiteConfig(
        n_templates=args.templates,
        queries_per_template=args.per_template,
        max_joins=args.max_joins,
    )

    # -- suite + determinism check -------------------------------------
    print(
        f"generating suite ({args.templates} templates x "
        f"{args.per_template} instances, scale={args.scale})...",
        file=sys.stderr,
    )
    suite = generate_template_suite(db, spec, suite_config, seed=args.seed)
    digest = suite.digest()
    redrawn = generate_template_suite(db, spec, suite_config, seed=args.seed)
    deterministic = redrawn.digest() == digest
    print("labeling suite (exact COUNT(*) per instance)...", file=sys.stderr)
    labeled = suite.label(db, min_queries_per_template=4)

    text_lines = [
        f"suite             : {len(suite)} templates, {suite.n_queries} "
        f"instances drawn (digest {digest[:12]}..., "
        f"{'deterministic' if deterministic else 'NON-DETERMINISTIC'})",
        f"labeled           : {len(labeled)} templates survive with "
        f"{labeled.n_queries} non-empty instances",
        "  "
        + ", ".join(f"{t.name}({len(t)})" for t in labeled.templates),
    ]

    # -- generalization experiment -------------------------------------
    print(
        "running generalization experiment (held-out literals vs "
        "held-out templates)...",
        file=sys.stderr,
    )
    report = run_generalization_experiment(
        db,
        spec,
        labeled,
        sketch_config=SketchConfig(
            sample_size=args.samples,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=args.seed,
        ),
        test_fraction=args.test_fraction,
        holdout_fraction=args.holdout_fraction,
        seed=args.seed,
        name="workload-bench",
    )
    gen_json = report.to_json()
    text_lines += [
        "",
        f"generalization    : trained on {report.n_train_queries} instances "
        f"of {len(report.train_templates)} templates; "
        f"{len(report.test_templates)} templates held out",
        f"  in-template     : overall p50 "
        f"{report.in_template.overall.median:8.2f}, p95 "
        f"{report.in_template.overall.p95:8.2f}, p99 "
        f"{report.in_template.overall.p99:8.2f}",
        f"  cross-template  : overall p50 "
        f"{report.cross_template.overall.median:8.2f}, p95 "
        f"{report.cross_template.overall.p95:8.2f}, worst per-template "
        f"p99 {report.cross_template_p99:8.2f}",
    ]
    for name, tails in sorted(gen_json["cross_template"]["per_template"].items()):
        text_lines.append(
            f"    {name:<16}: p50 {tails['p50']:8.2f}, p95 "
            f"{tails['p95']:8.2f}, p99 {tails['p99']:8.2f}, max "
            f"{tails['max']:10.2f} ({tails['count']} queries)"
        )

    # -- PostgreSQL baseline on the same held-out sides ----------------
    # Reconstruct the experiment's exact splits: the generalization
    # helper spawns (outer, inner, build) streams from the seed, so
    # re-spawning here lands the baseline on the identical test suites.
    print(
        "scoring PostgreSQL baseline on the same held-out suites...",
        file=sys.stderr,
    )
    outer_rng, inner_rng, _build_rng = spawn(make_rng(args.seed), 3)
    outer = split_by_template(labeled, args.test_fraction, seed=outer_rng)
    inner = split_within_template(
        outer.train, args.holdout_fraction, seed=inner_rng
    )
    postgres = PostgresEstimator(db)
    baselines = {
        "postgres": {
            "in_template": _baseline_eval(postgres, inner.test),
            "cross_template": _baseline_eval(postgres, outer.test),
        }
    }
    pg_cross = baselines["postgres"]["cross_template"]
    pg_in = baselines["postgres"]["in_template"]
    text_lines += [
        "",
        f"postgres baseline : in-template p50 "
        f"{pg_in['overall']['median']:8.2f}, p95 "
        f"{pg_in['overall']['95th']:8.2f}; cross-template p50 "
        f"{pg_cross['overall']['median']:8.2f}, p95 "
        f"{pg_cross['overall']['95th']:8.2f}",
    ]
    for name in sorted(pg_cross["per_template"]):
        pg = pg_cross["per_template"][name]
        learned = gen_json["cross_template"]["per_template"].get(name)
        learned_txt = (
            f"learned p99 {learned['p99']:8.2f}" if learned else "learned n/a"
        )
        text_lines.append(
            f"    {name:<16}: postgres p99 {pg['p99']:8.2f} vs {learned_txt}"
        )

    text = "\n".join(text_lines)
    print(text)

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    gates = {
        "suite_deterministic": deterministic,
        # Both split sides must report per-template tails — the
        # acceptance artifact is the cross-template p99, not an average.
        "split_sides_reported": (
            len(gen_json["in_template"]["per_template"]) > 0
            and len(gen_json["cross_template"]["per_template"]) > 0
        ),
        "cross_template_p99_finite": math.isfinite(report.cross_template_p99),
        "tails_finite": (
            _finite_tails(gen_json["in_template"]["per_template"])
            and _finite_tails(gen_json["cross_template"]["per_template"])
        ),
        # The baseline columns must cover exactly the estimator's
        # templates (same reconstructed splits) with finite tails.
        "baseline_templates_match": (
            set(pg_in["per_template"])
            == set(gen_json["in_template"]["per_template"])
            and set(pg_cross["per_template"])
            == set(gen_json["cross_template"]["per_template"])
        ),
        "baseline_tails_finite": (
            _finite_tails(pg_in["per_template"])
            and _finite_tails(pg_cross["per_template"])
        ),
    }
    ok = all(gates.values())

    # ------------------------------------------------------------------
    # machine-readable results (BENCH_workloads.json)
    # ------------------------------------------------------------------
    payload = {
        "suite": {
            "n_templates_drawn": len(suite),
            "n_queries_drawn": suite.n_queries,
            "n_templates_labeled": len(labeled),
            "n_queries_labeled": labeled.n_queries,
            "digest": digest,
            "deterministic": deterministic,
            "per_template_counts": {
                t.name: len(t) for t in labeled.templates
            },
        },
        "generalization": gen_json,
        "baselines": baselines,
        "config": {
            "mode": "tiny" if args.tiny else "full",
            "scale": args.scale,
            "templates": args.templates,
            "per_template": args.per_template,
            "max_joins": args.max_joins,
            "epochs": args.epochs,
            "samples": args.samples,
            "hidden": args.hidden,
            "seed": args.seed,
            "test_fraction": args.test_fraction,
            "holdout_fraction": args.holdout_fraction,
        },
        "gates": gates,
        "pass": ok,
    }

    results_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "bench_workloads.txt"), "w") as f:
        f.write(text.rstrip() + "\n")
    with open(os.path.join(results_dir, "BENCH_workloads.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    for gate, passed in gates.items():
        if not passed:
            print(f"FAIL: gate {gate!r} failed", file=sys.stderr)
    if ok:
        print(
            f"PASS: cross-template p99 {report.cross_template_p99:.1f} "
            f"(in-template p99 {report.in_template.overall.p99:.1f}) over "
            f"{len(report.test_templates)} held-out template(s)",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2,
                        help="synthetic IMDb scale factor")
    parser.add_argument("--templates", type=int, default=12,
                        help="templates to draw for the suite")
    parser.add_argument("--per-template", dest="per_template", type=int,
                        default=50, help="instances per template")
    parser.add_argument("--max-joins", dest="max_joins", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--test-fraction", dest="test_fraction", type=float,
                        default=0.25, help="fraction of templates held out")
    parser.add_argument("--holdout-fraction", dest="holdout_fraction",
                        type=float, default=0.2,
                        help="fraction of literals held out per training "
                        "template (the in-template test side)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration for CI (seconds)")
    args = parser.parse_args(argv)
    if args.tiny:
        apply_tiny_args(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
