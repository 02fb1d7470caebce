"""Figure 1b — the sketch interface: SQL in, estimate out.

Paper claims quantified here:

* "Deep Sketches feature a small footprint size (a few MiBs)" — we
  serialize the Table-1 sketch (model + 1000-row samples for six
  tables) and record the byte size;
* "and are fast to query (within milliseconds)" — we time single-query
  estimation end to end (SQL parsing, bitmap computation, featurization,
  network forward pass, denormalization);
* the sketch answers from its payload alone (deployable "in a web
  browser or within a cell phone"): estimation after a
  serialize/deserialize round-trip must match exactly.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.core import DeepSketch

from conftest import write_result

_SQL = (
    "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_info mi "
    "WHERE mk.movie_id=t.id AND mi.movie_id=t.id "
    "AND t.production_year>2005 AND mi.info_type_id=5;"
)

#: Timed calls per mean when pytest-benchmark does not time (it leaves
#: ``benchmark.stats`` unset under ``--benchmark-disable``).
_FALLBACK_ROUNDS = 10


def _mean_seconds(benchmark, fn) -> float:
    """Mean seconds per call of ``fn``: the benchmark's own, or a
    ``time.perf_counter`` loop when the benchmark did not time it."""
    if benchmark.stats is not None:
        return benchmark.stats["mean"]
    t0 = time.perf_counter()
    for _ in range(_FALLBACK_ROUNDS):
        fn()
    return (time.perf_counter() - t0) / _FALLBACK_ROUNDS


def test_fig1b_footprint(benchmark, table1_sketch):
    sketch, _ = table1_sketch
    blob = benchmark.pedantic(sketch.to_bytes, rounds=3, iterations=1)
    size_mib = len(blob) / (1024 * 1024)
    n_params = sketch.model.num_parameters()
    text = (
        "Figure 1b footprint:\n"
        f"  serialized sketch: {len(blob)} bytes ({size_mib:.2f} MiB)\n"
        f"  model parameters : {n_params}\n"
        f"  samples          : {sketch.samples.total_rows()} rows over "
        f"{len(sketch.samples.table_names)} tables"
    )
    print("\n" + text)
    write_result("fig1b_footprint", text)
    benchmark.extra_info["bytes"] = len(blob)
    benchmark.extra_info["mib"] = round(size_mib, 3)
    # "a few MiBs": comfortably under 8 MiB even with generous slack.
    assert size_mib < 8.0


def test_fig1b_estimation_latency_sql(benchmark, table1_sketch):
    """Single ad-hoc SQL query: parse + bitmaps + featurize + forward."""
    sketch, _ = table1_sketch
    fn = partial(sketch.estimate, _SQL)
    estimate = benchmark(fn)
    assert estimate >= 1.0
    # "within milliseconds": generous bound for a pure-python stack.
    assert _mean_seconds(benchmark, fn) < 0.05, "estimation took tens of ms"


def test_fig1b_estimation_latency_batched(benchmark, table1_sketch, joblight_workload):
    """Amortized per-query cost when batching the whole workload."""
    sketch, _ = table1_sketch
    queries, _ = joblight_workload
    fn = partial(sketch.estimate_many, queries)
    values = benchmark(fn)
    assert len(values) == len(queries)
    per_query_ms = _mean_seconds(benchmark, fn) / len(queries) * 1000
    benchmark.extra_info["per_query_ms"] = round(per_query_ms, 3)


def test_fig1b_roundtrip_consistency(benchmark, table1_sketch):
    """Deserialized sketches answer identically — the deployment story."""
    sketch, _ = table1_sketch
    blob = sketch.to_bytes()

    clone = benchmark.pedantic(DeepSketch.from_bytes, args=(blob,), rounds=3, iterations=1)
    original = sketch.estimate(_SQL)
    restored = clone.estimate(_SQL)
    assert np.isclose(original, restored)
    text = (
        "Figure 1b round-trip:\n"
        f"  estimate before serialization: {original:.1f}\n"
        f"  estimate after  deserialization: {restored:.1f}"
    )
    print("\n" + text)
    write_result("fig1b_roundtrip", text)
