"""Compare two sets of benchmark runs, one row per (workload, metric).

    python benchmarks/e2e/compare.py <setA.jsonl> <setB.jsonl>

A set is the JSON-lines file ``run.py --record`` appends to; run each
set at least five times per workload, interleaving A and B.  Per row:
each set's median and quartiles, B's median relative to A's (the base),
and a verdict against the metric's bound in ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the run-to-run spread of either set (interquartile range
                as a share of its median) is wider than the bound, so
                the medians cannot tell

Two sets of the same commit (A/A) must come out ``ok`` in every row.
Exit status is 1 if any row is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from common import ROOT, spread


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every untraced run in the file."""
    values: dict = defaultdict(list)
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["trace"] or not record["correct"]:
                continue
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
    return values


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if len(a.get(key, ())) < 2 or len(b.get(key, ())) < 2:
                continue
            med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            widest = max(spread(a[key]), spread(b[key]))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "n": (len(a[key]), len(b[key])),
                    "a": statistics.quantiles(a[key], n=4),
                    "b": statistics.quantiles(b[key], n=4),
                    "b_vs_a": (med_b - med_a) / med_a,
                    "spread": widest,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    """A markdown table (the README's A/A table is this output)."""
    lines = [
        "| workload | metric | unit | A q1 / median / q3 | B q1 / median / q3 "
        "| B vs A | widest spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        a = " / ".join(f"{v:.4g}" for v in r["a"])
        b = " / ".join(f"{v:.4g}" for v in r["b"])
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['unit']} | {a} | {b} "
            f"| {r['b_vs_a']:+.1%} | {r['spread']:.1%} | {r['bound']:.0%} | {r['verdict']} |"
        )
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(sys.argv[1]), load(sys.argv[2]), spec)
    if not rows:
        sys.exit("no (workload, metric) pair has two runs in both sets")
    print(render(rows))
    return int(any(r["verdict"] != "ok" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
