"""Plan quality — the paper's Section 1 motivation, quantified end to end.

"Estimates of intermediate query result sizes are the core ingredient to
cost-based query optimizers ... The estimates produced by Deep Sketches
can directly be leveraged by existing, sophisticated join enumeration
algorithms and cost models."

Three sections:

* **plan quality by estimator** — each estimator feeds the DP join
  enumerator under the C_out cost model (the standard JOB methodology);
  every chosen plan is scored by its cost under *true* cardinalities
  relative to the true-optimal plan.  A factor of 1.0 means the
  estimator's errors did not change the plan.  The truth oracle is
  gated at exactly 1.0 and the Deep Sketch must not trail the weaker
  traditional baseline by more than 5% on average (full mode).
* **enumeration ablation** — DP vs greedy under perfect estimates:
  DP is optimal by construction; greedy pays a measurable premium.
* **plan advisory serving** — the same queries through ``POST
  /v1/plan`` on a live front door.  Gates: the served plan is
  *identical* (same join-order string) to the in-process
  :class:`~repro.optimizer.PlanOptimizer` plan for every query, the
  estimated costs agree to 1e-12, and the front door advertises the
  capability in ``/v1/healthz``.  The estimate-vs-enumerate timing
  split quantifies what plan advice costs beyond plain estimation.

Every run writes machine-readable results to
``benchmarks/results/BENCH_plan_quality.json`` (sections + config +
gates + pass) plus the human-readable ``bench_plan_quality.txt``.

Run from the repository root::

    python benchmarks/bench_plan_quality.py          # full (minutes)
    python benchmarks/bench_plan_quality.py --tiny   # CI smoke run (seconds)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro.baselines import (  # noqa: E402
    HyperEstimator,
    PostgresEstimator,
    TruthEstimator,
)
from repro.core import SketchConfig  # noqa: E402
from repro.datasets import ImdbConfig, generate_imdb  # noqa: E402
from repro.demo import SketchManager  # noqa: E402
from repro.optimizer import PlanOptimizer  # noqa: E402
from repro.serve import RemoteSketchServer, SketchHTTPServer  # noqa: E402
from repro.workload import (  # noqa: E402
    JobLightConfig,
    generate_job_light,
    spec_for_imdb,
)

#: The ``--tiny`` smoke configuration (seconds, not minutes).
TINY_PLAN_QUALITY_ARGS = {
    "scale": 0.05,
    "queries": 300,
    "epochs": 2,
    "samples": 50,
    "hidden": 16,
    "plan_queries": 24,
}

#: Cost-parity bound between the served plan and the in-process plan.
PARITY_RTOL = 1e-12

#: Full-mode gate: the sketch's mean plan-cost factor must not trail the
#: weaker traditional baseline by more than this ratio.
SKETCH_VS_BASELINE_SLACK = 1.05


def _factor_stats(values: np.ndarray) -> dict:
    return {
        "mean": float(values.mean()),
        "p90": float(np.percentile(values, 90)),
        "max": float(values.max()),
        "pct_optimal": float((values < 1.001).mean() * 100),
    }


def run(args) -> int:
    db = generate_imdb(ImdbConfig(scale=args.scale, seed=7))
    manager = SketchManager(db)
    print(
        f"building sketch (scale={args.scale}, {args.queries} training "
        f"queries, {args.epochs} epochs)...",
        file=sys.stderr,
    )
    manager.create_sketch(
        "bench",
        spec_for_imdb(),
        config=SketchConfig(
            sample_size=args.samples,
            n_training_queries=args.queries,
            epochs=args.epochs,
            hidden_units=args.hidden,
            seed=args.seed,
        ),
    )
    sketch = manager.get_sketch("bench")
    queries = [
        q
        for q in generate_job_light(
            db, JobLightConfig(n_queries=args.plan_queries, seed=42)
        )
        if q.num_joins >= 2  # join order only matters with >= 3 relations
    ]
    truth = TruthEstimator(db)
    text_lines: list[str] = []

    # ------------------------------------------------------------------
    # plan quality by estimator
    # ------------------------------------------------------------------
    systems = {
        "Truth": truth,
        "Deep Sketch": sketch,
        "HyPer": HyperEstimator(db, sample_size=args.samples, seed=1),
        "PostgreSQL": PostgresEstimator(db),
    }
    quality: dict[str, dict] = {}
    factor_floor = True
    text_lines += [
        f"Plan quality over {len(queries)} JOB-light queries "
        "(true C_out of chosen plan / true C_out of optimal plan):",
        f"  {'system':<14} {'mean':>8} {'p90':>8} {'max':>8} {'% optimal':>10}",
    ]
    for name, estimator in systems.items():
        print(f"planning with {name}...", file=sys.stderr)
        optimizer = PlanOptimizer(db, estimator)
        values = np.array([optimizer.plan_quality_factor(q) for q in queries])
        factor_floor = factor_floor and bool((values >= 1.0 - 1e-9).all())
        quality[name] = _factor_stats(values)
        s = quality[name]
        text_lines.append(
            f"  {name:<14} {s['mean']:8.3f} {s['p90']:8.3f} "
            f"{s['max']:8.2f} {s['pct_optimal']:9.0f}%"
        )

    # ------------------------------------------------------------------
    # enumeration ablation: DP vs greedy under perfect estimates
    # ------------------------------------------------------------------
    print("enumeration ablation (dp vs greedy)...", file=sys.stderr)
    dp = PlanOptimizer(db, truth, strategy="dp")
    greedy = PlanOptimizer(db, truth, strategy="greedy")
    ratios = []
    for query in queries:
        dp_cost = dp.true_cost_of(dp.optimize(query))
        greedy_cost = greedy.true_cost_of(greedy.optimize(query))
        ratios.append(greedy_cost / max(dp_cost, 1.0))
    ratios = np.array(ratios)
    enumeration = {
        "n_queries": len(queries),
        "mean_ratio": float(ratios.mean()),
        "p90_ratio": float(np.percentile(ratios, 90)),
        "max_ratio": float(ratios.max()),
    }
    text_lines += [
        "",
        "Enumeration ablation (greedy true cost / DP true cost, truth "
        f"estimates, n={len(queries)}):",
        f"  mean {enumeration['mean_ratio']:.3f}   "
        f"p90 {enumeration['p90_ratio']:.3f}   "
        f"max {enumeration['max_ratio']:.3f}",
    ]

    # ------------------------------------------------------------------
    # plan advisory serving: POST /v1/plan vs in-process PlanOptimizer
    # ------------------------------------------------------------------
    print("measuring the plan advisory serve path...", file=sys.stderr)
    reference = PlanOptimizer(db, sketch)
    in_process = {q: reference.optimize(q) for q in queries}
    # The server answers from this same sketch object: without a cold
    # cache its sub-plans would be the reference's cached values, and
    # the comparison below would compare them with themselves.
    sketch.clear_cache()
    identical = 0
    cost_diffs: list[float] = []
    plan_ms: list[float] = []
    estimate_ms: list[float] = []
    enumerate_ms: list[float] = []
    with SketchHTTPServer(manager, port=0) as server:
        with RemoteSketchServer(server.url) as client:
            advertised = bool(client.healthz().get("plan"))
            negotiated = client.negotiate_transport()
            for query in queries:
                t0 = time.perf_counter()
                response = client.plan(query)
                plan_ms.append((time.perf_counter() - t0) * 1000.0)
                local = in_process[query]
                if not response.ok:
                    continue
                if str(response.plan) == str(local.plan):
                    identical += 1
                scale = max(abs(local.estimated_cost), 1e-300)
                cost_diffs.append(
                    abs(response.estimated_cost - local.estimated_cost) / scale
                )
                if response.estimate_ms is not None:
                    estimate_ms.append(response.estimate_ms)
                if response.enumerate_ms is not None:
                    enumerate_ms.append(response.enumerate_ms)
    serving = {
        "n_queries": len(queries),
        "transport": negotiated,
        "plan_advertised": advertised,
        "identical_plans": identical,
        "max_cost_rel_diff": float(max(cost_diffs)) if cost_diffs else None,
        "mean_plan_ms": float(np.mean(plan_ms)),
        "mean_estimate_ms": float(np.mean(estimate_ms)),
        "mean_enumerate_ms": float(np.mean(enumerate_ms)),
    }
    text_lines += [
        "",
        f"Plan advisory serving ({negotiated} transport, "
        f"{len(queries)} queries):",
        f"  identical plans {identical}/{len(queries)}, max cost rel diff "
        f"{serving['max_cost_rel_diff']:.2e}" if cost_diffs else
        f"  identical plans {identical}/{len(queries)}, no costs compared",
        f"  mean round trip {serving['mean_plan_ms']:7.2f} ms "
        f"(estimate {serving['mean_estimate_ms']:.2f} ms + enumerate+DP "
        f"{serving['mean_enumerate_ms']:.2f} ms server-side)",
    ]
    text = "\n".join(text_lines)
    print(text)

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    gates = {
        # A plan can never beat the true optimum.
        "factors_at_least_one": factor_floor,
        # Perfect estimates make the DP exactly optimal.
        "truth_is_optimal": quality["Truth"]["mean"] <= 1.0 + 1e-9,
        "greedy_never_beats_dp": bool((ratios >= 1.0 - 1e-9).all()),
        # The serve path is advice about the SAME plan the in-process
        # optimizer would choose — identical join order, equal cost.
        "serve_plans_identical": identical == len(queries),
        "serve_cost_parity": (
            len(cost_diffs) == len(queries)
            and max(cost_diffs) <= PARITY_RTOL
        ),
        "plan_capability_advertised": advertised,
    }
    if not args.tiny:
        # The tiny sketch is deliberately under-trained; only the full
        # configuration holds it to the baseline bar.
        worst_baseline = max(
            quality["HyPer"]["mean"], quality["PostgreSQL"]["mean"]
        )
        gates["sketch_not_worse_than_baselines"] = (
            quality["Deep Sketch"]["mean"]
            <= worst_baseline * SKETCH_VS_BASELINE_SLACK
        )
    ok = all(gates.values())

    payload = {
        "plan_quality": quality,
        "enumeration": enumeration,
        "serving": serving,
        "config": {
            "mode": "tiny" if args.tiny else "full",
            "scale": args.scale,
            "queries": args.queries,
            "epochs": args.epochs,
            "samples": args.samples,
            "hidden": args.hidden,
            "seed": args.seed,
            "plan_queries": args.plan_queries,
            "n_planned": len(queries),
            "parity_rtol": PARITY_RTOL,
            "sketch_vs_baseline_slack": SKETCH_VS_BASELINE_SLACK,
        },
        "gates": gates,
        "pass": ok,
    }

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "bench_plan_quality.txt"), "w") as f:
        f.write(text.rstrip() + "\n")
    with open(os.path.join(results_dir, "BENCH_plan_quality.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    for gate, passed in gates.items():
        if not passed:
            print(f"FAIL: gate {gate!r} failed", file=sys.stderr)
    if ok:
        print(
            f"PASS: {identical}/{len(queries)} served plans identical to "
            "in-process plans, sketch mean plan-cost factor "
            f"{quality['Deep Sketch']['mean']:.3f} "
            f"(truth {quality['Truth']['mean']:.3f}), plan round trip "
            f"{serving['mean_plan_ms']:.1f} ms mean",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="synthetic IMDb scale factor")
    parser.add_argument("--queries", type=int, default=20_000,
                        help="training queries for the benched sketch")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--plan-queries", type=int, default=70,
                        help="JOB-light queries drawn (>=2-join ones kept)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration for CI (seconds)")
    args = parser.parse_args(argv)
    if args.tiny:
        vars(args).update(TINY_PLAN_QUALITY_ARGS)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
