"""The per-layer ledger: spans recorded from outside the program.

A :class:`Tracer` keeps spans (name, start, end, parent, op id) in
memory.  :class:`Ledger` replays one 256-query chunk stage by stage
through the public function of each layer, so every layer gets a time
measured around its own call, and compares the sum of the stages with
what ``SketchServer.serve`` takes for a chunk of the same kind.

Layer functions are looked up by dotted path when the ledger starts; one
that no longer exists is counted in ``trace.missing`` and its metric
reads 0, so a refactor is never blocked by the tracer.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from common import BATCH

#: Queries per round for the single-query paths (they cost ~100x more
#: per query than the batched ones).
SINGLES = 32
PLANS_PER_ROUND = 16


class Tracer:
    """In-memory spans; ``span`` nests by thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._current = threading.local()

    def add(self, name, start, end, parent=None, op=None) -> int:
        span = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op=None):
        parent = getattr(self._current, "id", None)
        sid = self.add(name, time.perf_counter(), None, parent, op)
        self._current.id = sid
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()
            self._current.id = parent

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, op=None) -> dict[str, float]:
        """Total self time per span name: duration minus child spans.
        With ``op``, over the spans of that one op only."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, inside in zip(self.spans, covered):
            if op is not None and span["op"] != op:
                continue
            own = span["end"] - span["start"] - inside
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def dump(self, path, context: dict) -> None:
        path.write_text(
            json.dumps(
                {"context": context, "self_time_s": self.self_times(), "spans": self.spans}
            )
        )


def resolve(path: str):
    """``"pkg.module:attr.attr"`` -> the object, or None if it is gone."""
    module, _, attrs = path.partition(":")
    try:
        target = importlib.import_module(module)
        for attr in attrs.split("."):
            target = getattr(target, attr)
    except (ImportError, AttributeError):
        return None
    return target


#: Span name -> the public function the span is recorded around.
TARGETS = {
    "db.sql.parse": "repro.db.sql:parse_sql",
    "db.sql.to_sql": "repro.db.sql:to_sql",
    "demo.manager.route": "repro.demo.manager:SketchManager.route_name",
    "sampling.bitmaps.batch": "repro.sampling.bitmaps:batch_bitmaps",
    "sampling.bitmaps.single": "repro.sampling.bitmaps:query_bitmaps",
    "core.featurization.featurize_batch": "repro.core.featurization:Featurizer.featurize_batch",
    "core.featurization.featurize_query": "repro.core.featurization:Featurizer.featurize_query",
    "core.featurization.denormalize": "repro.core.featurization:Featurizer.denormalize_label",
    "core.batches.collate": "repro.core.batches:collate",
    "nn.inference.forward": "repro.nn.inference:InferenceSession.run",
    "core.sketch.estimate_many": "repro.core.sketch:DeepSketch.estimate_many",
    "serve.server.serve": "repro.serve.server:SketchServer.serve",
    "serve.protocol.request_to_wire": "repro.serve.protocol:estimate_request_to_wire",
    "serve.protocol.request_from_wire": "repro.serve.protocol:estimate_request_from_wire",
    "serve.protocol.response_to_wire": "repro.serve.protocol:response_to_wire",
    "serve.protocol.response_from_wire": "repro.serve.protocol:response_from_wire",
    "serve.wire.encode_batch_request": "repro.serve.wire:encode_batch_request",
    "serve.wire.decode_batch_request": "repro.serve.wire:decode_batch_request",
    "serve.wire.encode_batch_response": "repro.serve.wire:encode_batch_response",
    "serve.wire.decode_batch_response": "repro.serve.wire:decode_batch_response",
    "serve.wire.encode_plan_request": "repro.serve.wire:encode_plan_request",
    "serve.wire.decode_plan_request": "repro.serve.wire:decode_plan_request",
    "serve.wire.encode_plan_response": "repro.serve.wire:encode_plan_response",
    "serve.wire.decode_plan_response": "repro.serve.wire:decode_plan_response",
    "serve.server.plan": "repro.serve.server:SketchServer.plan",
    "optimizer.enumerate.connected_subsets": "repro.optimizer.enumerate:connected_subsets",
    "optimizer.enumerate.dp": "repro.optimizer.enumerate:dp_optimal_plan",
    "workload.generator.draw": "repro.workload.generator:TrainingQueryGenerator.draw",
    "db.executor.execute_count": "repro.db.executor:execute_count",
}

#: What ``DeepSketch.estimate_many`` does for a batch of misses, in order.
SKETCH_STAGES = (
    "sampling.bitmaps.batch",
    "core.featurization.featurize_batch",
    "core.batches.collate",
    "nn.inference.forward",
    "core.featurization.denormalize",
)
#: What ``serve`` does for a chunk of misses, stage by stage; what is
#: left of ``serve`` is the engine's intake, dedup, futures and scatter.
SERVE_STAGES = ("db.sql.parse", "demo.manager.route", *SKETCH_STAGES)


class _Catalog:
    """Resolves string literals against the sketch's own samples, as the
    sketch does when it featurizes."""

    def __init__(self, samples):
        self._samples = samples

    def table(self, name):
        return self._samples.for_table(name)


class _Cards:
    """Served sub-plan estimates handed to the DP enumerator."""

    def __init__(self, subplans):
        self._cards = {frozenset(s.aliases): s.estimate for s in subplans}

    def cardinality(self, aliases):
        return self._cards[aliases]


def forward_cost(session, batch) -> tuple[float, float]:
    """FLOPs and bytes moved per query for one forward pass.

    Computed from tensor shapes, not measured: two GEMMs per set module
    over the padded ``(B*S, d)`` input, two for the output MLP; bytes are
    every operand and result of those GEMMs at the session dtype.
    """
    h = session.hidden_units
    item = session.dtype.itemsize
    flops = bytes_moved = 0.0
    for x in (batch.tables, batch.joins, batch.predicates):
        rows, d = x.shape[0] * x.shape[1], x.shape[2]
        flops += 2.0 * rows * (d * h + h * h)
        bytes_moved += item * (rows * d + d * h + 3 * rows * h + h * h)
    b = batch.tables.shape[0]
    flops += 2.0 * b * (3 * h * h + h)
    bytes_moved += item * (b * 3 * h + 3 * h * h + 2 * b * h + h + b)
    return flops / b, bytes_moved / b


class Ledger:
    """Staged replay of chunks through every layer, on its own service."""

    def __init__(self, tracer: Tracer, sketch_path: str, db, spec):
        from repro.core import DeepSketch
        from repro.core.batches import CollateScratch
        from repro.demo.manager import SketchManager
        from repro.sampling.bitmaps import PredicateMaskMemo
        from repro.serve import FeatureCache, ServeConfig, SketchServer
        from repro.workload import TrainingQueryGenerator

        self.tracer = tracer
        self.fn = {name: resolve(path) for name, path in TARGETS.items()}
        self.missing = sorted(name for name, fn in self.fn.items() if fn is None)
        self.db = db

        t0 = time.perf_counter()
        self.sketch = DeepSketch.load(sketch_path)
        self.load_sketch_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.session = self.sketch.inference_session
        self.session_compile_s = time.perf_counter() - t0

        self.featurizer = self.sketch.featurizer
        self.samples = self.sketch.samples
        self.catalog = _Catalog(self.samples)
        self.memo = PredicateMaskMemo(self.samples)
        self.feature_cache = FeatureCache()
        self.scratch = CollateScratch()
        self.manager = SketchManager()
        self.manager.register_sketch(self.sketch)
        # serve() is timed on a second copy, so its result cache and
        # mask memo have seen exactly the chunks the staged replay has;
        # plans go to a third.  On a shared one a sub-plan now and then
        # answers a chunk's query from the result cache, the chunk
        # computes 255 rows, not 256, and serve() pays ~100 ms of page
        # faults for a collate buffer of a shape it has not used before.
        def fresh_server():
            manager = SketchManager()
            manager.register_sketch(DeepSketch.load(sketch_path))
            return SketchServer(manager, ServeConfig(max_batch_size=BATCH))

        self.server, self.plan_server = fresh_server(), fresh_server()
        self.generator = TrainingQueryGenerator(db, spec, seed=0)

        self.flops = self.bytes = 0.0
        self.json_bytes: list[int] = []
        self.wire_bytes: list[int] = []
        self.parity = 0.0
        self.plan_responses: list = []

    @contextmanager
    def stage(self, name: str, op):
        """A span around one layer's public function."""
        with self.tracer.span(name, op):
            yield self.fn[name]

    def have(self, prefix: str) -> bool:
        """Do all of a group's layer functions still exist?"""
        return not any(name.startswith(prefix) for name in self.missing)

    # ------------------------------------------------------------------
    def round(self, op: int, sqls: list[str], plan_sqls: list[str]) -> None:
        """One pass over every layer; a group whose functions are gone
        is skipped (its metrics read 0) instead of failing the run."""
        if not (self.have("db.sql") and self.have("serve.server")):
            return
        with self.tracer.span("ledger.round", op):
            with self.stage("db.sql.parse", op) as parse_sql:
                queries = [parse_sql(sql) for sql in sqls]
            with self.stage("db.sql.to_sql", op) as to_sql:
                for query in queries:
                    to_sql(query)
            with self.stage("serve.server.serve", op) as serve:
                responses = serve(self.server, sqls)
            served = np.array([r.estimate for r in responses])
            if self.fn["demo.manager.route"] and all(self.fn[n] for n in SKETCH_STAGES):
                self._check(served, self._serving_path(op, queries))
            if self.have("core.sketch"):
                self._check(served, self._sketch_paths(op, queries))
            if self.have("sampling.bitmaps.single") and self.have("core.featurization"):
                self._single_query_paths(op, queries[:SINGLES])
            if self.have("serve.protocol"):
                self._json_codec(op, sqls, responses)
            if self.have("serve.wire"):
                self._binary_codec(op, sqls, responses)
            if self.have("optimizer.enumerate") and self.have("serve.wire"):
                self._plans(op, plan_sqls)
            if self.have("workload.generator") and self.have("db.executor"):
                self._build_side(op, queries[:SINGLES])

    def _check(self, served, other) -> None:
        self.parity = max(self.parity, float(np.max(np.abs(other - served) / served)))

    def _serving_path(self, op, queries):
        """route -> bitmaps -> featurize -> collate -> forward ->
        denormalize on already-parsed queries, each through its layer's
        public function; ``replay`` plus the parse span is what
        ``serve`` does for the same chunk."""
        with self.tracer.span("replay", op):
            with self.stage("demo.manager.route", op) as route_name:
                for query in queries:
                    route_name(self.manager, query)
            with self.stage("sampling.bitmaps.batch", op) as batch_bitmaps:
                bitmaps = batch_bitmaps(self.samples, queries, memo=self.memo)
            with self.stage("core.featurization.featurize_batch", op) as featurize:
                features = featurize(
                    self.featurizer, queries, bitmaps,
                    db=self.catalog, template_cache=self.feature_cache,
                )
            with self.stage("core.batches.collate", op) as collate:
                batch = collate(features, dtype=self.session.dtype, scratch=self.scratch)
            with self.stage("nn.inference.forward", op) as run:
                predictions = run(self.session, batch)
            with self.stage("core.featurization.denormalize", op) as denormalize:
                estimates = np.maximum(denormalize(self.featurizer, predictions), 1.0)
        self.flops, self.bytes = forward_cost(self.session, batch)
        return estimates

    def _sketch_paths(self, op, queries):
        with self.stage("core.sketch.estimate_many", op) as estimate_many:
            direct = estimate_many(self.sketch, queries)
        with self.tracer.span("core.sketch.cache_hit", op):
            self.sketch.estimate_many(queries)
        return direct

    def _single_query_paths(self, op, queries):
        from repro.core.batches import collate

        with self.stage("sampling.bitmaps.single", op) as query_bitmaps:
            bitmaps = [query_bitmaps(self.samples, q) for q in queries]
        with self.stage("core.featurization.featurize_query", op) as featurize:
            features = [
                featurize(self.featurizer, q, b, db=self.catalog)
                for q, b in zip(queries, bitmaps)
            ]
        batches = [collate([f], dtype=self.session.dtype) for f in features]
        with self.tracer.span("nn.inference.forward_single", op):
            for batch in batches:
                self.session.run(batch)

    def _json_codec(self, op, sqls, responses):
        """The JSON door's per-request envelopes, both directions."""
        f = self.fn
        with self.tracer.span("serve.protocol.encode", op):
            requests = [json.dumps(f["serve.protocol.request_to_wire"](s)) for s in sqls]
            bodies = [
                json.dumps(f["serve.protocol.response_to_wire"](r, 1.0)) for r in responses
            ]
        with self.tracer.span("serve.protocol.decode", op):
            for request, body in zip(requests, bodies):
                f["serve.protocol.request_from_wire"](json.loads(request))
                f["serve.protocol.response_from_wire"](json.loads(body))
        self.json_bytes.append(sum(map(len, requests)) + sum(map(len, bodies)))

    def _binary_codec(self, op, sqls, responses):
        """The binary transport's batch envelopes, both directions."""
        f = self.fn
        with self.tracer.span("serve.wire.encode", op):
            request = f["serve.wire.encode_batch_request"](sqls)
            body = f["serve.wire.encode_batch_response"](responses, 1.0)
        with self.tracer.span("serve.wire.decode", op):
            f["serve.wire.decode_batch_request"](request)
            f["serve.wire.decode_batch_response"](body)
        self.wire_bytes.append(len(request) + len(body))

    def _plans(self, op, plan_sqls):
        f = self.fn
        with self.stage("serve.server.plan", op) as plan:
            responses = [plan(self.plan_server, sql) for sql in plan_sqls]
        self.plan_responses.extend(responses)
        with self.stage("optimizer.enumerate.connected_subsets", op) as subsets:
            for response in responses:
                subsets(response.query)
        with self.stage("optimizer.enumerate.dp", op) as dp:
            for response in responses:
                dp(response.query, _Cards(response.subplans))
        with self.tracer.span("serve.wire.plan_encode", op):
            requests = [f["serve.wire.encode_plan_request"](sql) for sql in plan_sqls]
            bodies = [f["serve.wire.encode_plan_response"](r, 1.0) for r in responses]
        with self.tracer.span("serve.wire.plan_decode", op):
            for request, body in zip(requests, bodies):
                f["serve.wire.decode_plan_request"](request)
                f["serve.wire.decode_plan_response"](body)

    def _build_side(self, op, queries):
        with self.stage("workload.generator.draw", op) as draw:
            for _ in range(BATCH):
                draw(self.generator)
        with self.stage("db.executor.execute_count", op) as execute_count:
            for query in queries:
                execute_count(self.db, query)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """The fastest round of each span, per query, in the metric's unit.

        The minimum, as ``timeit`` takes it: what disturbs a 20-50 ms span
        here only ever adds time (a page fault costs 25-100 us on this
        VM, a neighbour's burst tens of ms), and the median over rounds
        moved 20-40% between identical runs.
        """

        def per(name: str, divisor: float, scale: float = 1e6) -> float:
            durations = self.tracer.durations(name)
            return min(durations) / divisor * scale if durations else 0.0

        def mean(values) -> float:
            return float(np.mean(values)) if values else 0.0

        stage_us = {name: per(name, BATCH) for name in ("core.sketch.estimate_many", *SERVE_STAGES)}
        # How much of serve() the stage spans explain, round by round:
        # numerator and denominator are the same chunk, served and then
        # replayed ~50 ms apart; the median over rounds is reported.
        coverage, overhead_us = [], []
        for op in sorted({s["op"] for s in self.tracer.spans if s["name"] == "ledger.round"}):
            own = self.tracer.self_times(op)
            if "replay" not in own:
                continue  # a stage function is gone: nothing to compare
            explained = sum(own[name] for name in SERVE_STAGES)
            coverage.append(explained / own["serve.server.serve"])
            overhead_us.append((own["serve.server.serve"] - explained) / BATCH * 1e6)
        cache = self.feature_cache.stats()
        return {
            "process.load_sketch_s": self.load_sketch_s,
            "process.session_compile_s": self.session_compile_s,
            "db.sql.parse_us": stage_us["db.sql.parse"],
            "db.sql.to_sql_us": per("db.sql.to_sql", BATCH),
            "demo.manager.route_us": stage_us["demo.manager.route"],
            "sampling.bitmaps.batch_us": stage_us["sampling.bitmaps.batch"],
            "sampling.bitmaps.single_us": per("sampling.bitmaps.single", SINGLES),
            "core.featurization.featurize_batch_us": stage_us[
                "core.featurization.featurize_batch"
            ],
            "core.featurization.featurize_query_us": per(
                "core.featurization.featurize_query", SINGLES
            ),
            "core.featurization.template_hit_share": cache.hits
            / max(cache.hits + cache.misses, 1),
            "core.featurization.denormalize_us": stage_us["core.featurization.denormalize"],
            "core.batches.collate_us": stage_us["core.batches.collate"],
            "nn.inference.forward_us": stage_us["nn.inference.forward"],
            "nn.inference.forward_single_us": per("nn.inference.forward_single", SINGLES),
            "nn.inference.flops_per_query": self.flops,
            "nn.inference.bytes_per_query": self.bytes,
            "core.sketch.estimate_many_us": stage_us["core.sketch.estimate_many"],
            "core.sketch.cache_hit_us": per("core.sketch.cache_hit", BATCH),
            "serve.engine.overhead_us": float(np.median(overhead_us)) if overhead_us else 0.0,
            "serve.protocol.encode_us": per("serve.protocol.encode", BATCH),
            "serve.protocol.decode_us": per("serve.protocol.decode", BATCH),
            "serve.protocol.bytes_per_request": mean(self.json_bytes) / BATCH,
            "serve.wire.encode_us": per("serve.wire.encode", BATCH),
            "serve.wire.decode_us": per("serve.wire.decode", BATCH),
            "serve.wire.bytes_per_request": mean(self.wire_bytes) / BATCH,
            "serve.wire.plan_encode_us": per("serve.wire.plan_encode", PLANS_PER_ROUND),
            "serve.wire.plan_decode_us": per("serve.wire.plan_decode", PLANS_PER_ROUND),
            "optimizer.enumerate.connected_subsets_us": per(
                "optimizer.enumerate.connected_subsets", PLANS_PER_ROUND
            ),
            "optimizer.enumerate.dp_us": per("optimizer.enumerate.dp", PLANS_PER_ROUND),
            "workload.generator.draw_us": per("workload.generator.draw", BATCH),
            "db.executor.execute_count_us": per("db.executor.execute_count", SINGLES),
            "trace.coverage": float(np.median(coverage)) if coverage else 0.0,
            "trace.missing": float(len(self.missing)),
        }


def plan_metrics(responses) -> dict:
    """The plan layer's public timing split and sub-plan counts."""
    return {
        "serve.plan.enumerate_ms": float(np.median([r.enumerate_ms for r in responses])),
        "serve.plan.estimate_ms": float(np.median([r.estimate_ms for r in responses])),
        "serve.plan.subplans_per_plan": float(np.mean([len(r.subplans) for r in responses])),
        "serve.plan.degraded_share": float(np.mean([r.degraded for r in responses])),
    }
