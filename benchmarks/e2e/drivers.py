"""Input generation and the five workload drivers.

Everything here calls the unmodified ``repro`` package through its
public functions.  ``prepare`` builds the fixture and the seeded inputs
with their reference answers; a driver brings one workload's service up,
issues calls against it and checks every answer against the references.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from common import (
    ADHOC_CLIENTS,
    BATCH,
    BUILD_EPOCHS,
    BUILD_QUERIES,
    FIXTURE_BATCH_SIZE,
    FIXTURE_SEED,
    FRESH_PER_BATCH,
    HOT_HIT_BAND,
    HOT_POOL,
    IMDB_SCALE,
    IMDB_SEED,
    LEDGER_ROUNDS,
    PARITY_TOL,
    PLAN_CHECK,
    PLAN_POOL,
    POOL_SIZE,
    QUALITY_QUERIES,
    REMOTE,
    RESULT_LRU,
    ZIPF_S,
)
from repro.core import DeepSketch, SketchConfig, build_sketch
from repro.datasets import ImdbConfig, generate_imdb
from repro.db.executor import execute_count
from repro.demo.manager import SketchManager
from repro.optimizer import PlanOptimizer
from repro.serve import RemoteSketchServer, ServeConfig, SketchServer
from repro.serve.plan import PlanResponse
from repro.serve import protocol
from repro.workload import (
    JobLightConfig,
    TrainingQueryGenerator,
    generate_job_light,
    spec_for_imdb,
)

POOL_WORKLOADS = ("stream_cold", "stream_hot", "adhoc_json")
SERVE_CONFIG = ServeConfig(max_batch_size=BATCH)


def make_db():
    return generate_imdb(ImdbConfig(scale=IMDB_SCALE, seed=IMDB_SEED))


def build_config(**overrides) -> SketchConfig:
    return SketchConfig(
        n_training_queries=BUILD_QUERIES, epochs=BUILD_EPOCHS, seed=0, **overrides
    )


def digest(sqls) -> str:
    return hashlib.sha256("\n".join(sqls).encode()).hexdigest()[:16]


def rel_diff(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class BuildWatch:
    """A ``progress`` callback that timestamps every build event."""

    def __init__(self):
        self.events: list[tuple[str, int, float]] = []

    def __call__(self, event) -> None:
        self.events.append((event.stage, event.current, time.perf_counter()))

    def epoch_ms(self) -> list[float]:
        """Wall time of each epoch as the callback sees it: the gap
        between consecutive ``train`` events, the first one counted from
        the last ``execute`` event (so it carries featurization and
        precollation)."""
        out, previous = [], None
        for stage, _, t in self.events:
            if stage == "train":
                out.append((t - previous) * 1000.0)
            previous = t
        return out


def builder_metrics(report, watch: BuildWatch) -> dict:
    epochs = watch.epoch_ms()
    stages = report.stage_seconds
    return {
        "core.builder.define_s": stages["define"],
        "core.builder.generate_s": stages["generate"],
        "core.builder.execute_s": stages["execute"],
        "core.builder.train_s": stages["train"],
        "core.builder.zero_card_dropped_share": (
            report.n_zero_cardinality_dropped / report.n_queries_generated
        ),
        "core.training.first_epoch_ms": epochs[0],
        "core.training.epoch_ms": float(np.median(epochs[1:])),
    }


def direct_estimates(sketch, queries) -> list[float]:
    """The oracle: the sketch's own batched estimate, no serving stack."""
    out: list[float] = []
    for i in range(0, len(queries), BATCH):
        out.extend(sketch.estimate_many(queries[i : i + BATCH], use_cache=False).tolist())
    return out


def distinct_queries(db, spec, seed: int, n: int):
    generator = TrainingQueryGenerator(db, spec, seed=seed)
    seen: dict = {}
    while len(seen) < n:
        seen.setdefault(generator.draw(), None)
    return list(seen)


def quality_set(db):
    """The fixed 70-query JOB-light-shaped set and its true cardinalities.

    Not driven by ``--seed``: q-error p50 moves 3.6-10 between query
    seeds, so a ceiling only means something on one fixed set.
    """
    queries = generate_job_light(db, JobLightConfig(n_queries=QUALITY_QUERIES))
    return queries, [execute_count(db, q) for q in queries]


def prepare(workload: str, seed: int, tmp, trace: bool) -> dict:
    """Build the fixture and this run's inputs; write them under ``tmp``."""
    db = make_db()
    spec = spec_for_imdb()
    watch = BuildWatch()
    t0 = time.perf_counter()
    sketch, report = build_sketch(
        db, spec, name="imdb", config=build_config(batch_size=FIXTURE_BATCH_SIZE),
        progress=watch, seed=FIXTURE_SEED,
    )
    build_s = time.perf_counter() - t0
    footprint = sketch.save(str(tmp / "imdb.sketch"))

    inputs: dict = {}
    digests: dict = {}
    quality, truth = quality_set(db)
    inputs["quality"] = {"sql": [q.to_sql() for q in quality], "truth": truth}

    if workload in POOL_WORKLOADS or trace:
        n = POOL_SIZE if workload in POOL_WORKLOADS else (LEDGER_ROUNDS + 2) * BATCH
        if workload == "stream_hot":
            n += HOT_POOL
        pool = distinct_queries(db, spec, seed, n)
        sqls = [q.to_sql() for q in pool]
        inputs["pool"] = {"sql": sqls, "ref": direct_estimates(sketch, pool)}
        digests["pool"] = digest(sqls)

    if workload == "plan_remote" or trace:
        n = PLAN_POOL if workload == "plan_remote" else PLAN_CHECK
        plans = generate_job_light(
            db, JobLightConfig(n_queries=n, require_nonzero=False), seed=seed
        )
        optimizer = PlanOptimizer(db, sketch)
        checked = [optimizer.optimize(q) for q in plans[:PLAN_CHECK]]
        sqls = [q.to_sql() for q in plans]
        inputs["plans"] = {
            "sql": sqls,
            "ref_order": [str(p.plan) for p in checked],
            "ref_cost": [p.estimated_cost for p in checked],
        }
        digests["plans"] = digest(sqls)

    # The one request a cold start answers, with what a correct answer is.
    if workload == "plan_remote":
        reference = PlanResponse(
            request=sqls[0], query=None, sketch=None,
            plan=checked[0].plan, estimated_cost=checked[0].estimated_cost,
        )
        probe = {
            "path": "/v1/plan",
            "sql": sqls[0],
            "field": "estimated_cost",
            "value": checked[0].estimated_cost,
            "plan": protocol.plan_response_to_wire(reference)["plan"],
        }
    else:
        probe_sql = inputs["quality"]["sql"][0]
        probe = {
            "path": "/v1/estimate",
            "sql": probe_sql,
            "field": "estimate",
            "value": float(sketch.estimate(probe_sql, use_cache=False)),
        }
    (tmp / "probe.json").write_text(json.dumps(probe))
    (tmp / "inputs.json").write_text(json.dumps(inputs))

    metrics = builder_metrics(report, watch)
    metrics["fixture.build_s"] = build_s
    metrics["sketch.footprint_bytes"] = footprint
    return {"metrics": metrics, "digests": digests}


class Outcome:
    """What one call did: ops attempted, ops failed, worst parity gap.

    The driver fills ``t0``/``t1`` (``perf_counter`` around the program
    under test only, not around checking) and ``latencies_ms``, the
    caller-visible call times inside that interval.
    """

    __slots__ = ("ops", "failed", "gap", "t0", "t1", "latencies_ms", "traced", "wall")

    def __init__(self, ops: int, failed: int = 0, gap: float = 0.0):
        self.ops, self.failed, self.gap = ops, failed, gap

    def timed(self, t0: float, t1: float, latencies_ms=None) -> "Outcome":
        self.t0, self.t1 = t0, t1
        self.latencies_ms = (
            [(t1 - t0) * 1000.0] if latencies_ms is None else latencies_ms
        )
        return self


def judge(estimates, oks, expected) -> Outcome:
    """Compare served estimates with the oracle's, to PARITY_TOL relative."""
    failed, gap = 0, 0.0
    for got, ok, want in zip(estimates, oks, expected):
        if not ok or got is None:
            failed += 1
            continue
        d = rel_diff(got, want)
        gap = max(gap, d)
        failed += d > PARITY_TOL
    return Outcome(len(expected), failed, gap)


class Driver:
    """One workload: bring-up, first answer, calls, validity, teardown.

    ``call(thread, k)`` issues the ``k``-th call of one client thread
    and returns its timed :class:`Outcome`; the call index keeps
    counting across warm-up and windows so a stream never restarts.
    """

    name = ""
    clients = 1
    #: Calls per client thread: deterministic warm-up, and one
    #: count-based pass of a traced run at the default ``--seconds``.
    warmup_calls = 4
    pass_calls = 24
    transport: str | None = None
    #: Whose answers the quality gate judges (a key of
    #: ``QERROR_P50_AT_DEFINITION``).
    quality_of = "fixture"

    def __init__(self, tmp, seed: int, url: str | None = None):
        self.tmp, self.seed, self.url = tmp, seed, url
        self.inputs: dict = {}
        self.service = None

    # -- lifecycle -----------------------------------------------------
    def bringup(self) -> None:
        """Bring the service up, as a user would: no benchmark inputs yet."""
        raise NotImplementedError

    def probe(self) -> dict:
        return json.loads((self.tmp / "probe.json").read_text())

    def first_answer(self) -> bool:
        probe = self.probe()
        response = self.service.estimate(probe["sql"])
        return response.ok and rel_diff(response.estimate, probe["value"]) <= PARITY_TOL

    def load(self) -> None:
        """Read this run's inputs; after the first answer, so that set-up
        time never includes the benchmark's own files."""
        path = self.tmp / "inputs.json"
        if path.exists():
            self.inputs = json.loads(path.read_text())
        if "pool" in self.inputs:
            self.sql, self.ref = self.inputs["pool"]["sql"], self.inputs["pool"]["ref"]

    def close(self) -> None:
        self.service.close()

    # -- telemetry -----------------------------------------------------
    def stats(self) -> dict:
        return self.service.stats_summary()

    def validity(self, before: dict, after: dict) -> list[str]:
        """Workload-validity failures over one window (empty = valid)."""
        problems = []
        for counter in ("shed", "deadline_missed", "errors", "executor_fallbacks"):
            if after[counter] != before[counter]:
                problems.append(f"{counter} moved by {after[counter] - before[counter]}")
        if self.transport is not None:
            negotiated = self.service.timings()["transport"]
            if negotiated != self.transport:
                problems.append(f"transport is {negotiated}, not {self.transport}")
        return problems

    def quality(self) -> tuple[list[str], list[int]]:
        """The fixed quality set: SQL and true cardinalities."""
        return self.inputs["quality"]["sql"], self.inputs["quality"]["truth"]

    def quality_estimates(self, sqls) -> list[float]:
        """Estimates for the quality set, through this workload's own path."""
        return [r.estimate for r in self.service.serve(sqls)]


class StreamCold(Driver):
    """In-process ``serve(256 SQL strings)`` over never-repeating queries."""

    name = "stream_cold"

    def bringup(self) -> None:
        manager = SketchManager()
        manager.register_sketch(DeepSketch.load(str(self.tmp / "imdb.sketch")))
        self.service = SketchServer(manager, SERVE_CONFIG)

    def call(self, thread: int, k: int):
        lo = (k * BATCH) % len(self.sql)
        t0 = time.perf_counter()
        responses = self.service.serve(self.sql[lo : lo + BATCH])
        t1 = time.perf_counter()
        return judge(
            [r.estimate for r in responses], [r.ok for r in responses],
            self.ref[lo : lo + BATCH],
        ).timed(t0, t1)

    def validity(self, before, after):
        problems = super().validity(before, after)
        hits = after["cache_hits"] - before["cache_hits"]
        if hits:
            problems.append(f"{hits} result-cache hits on the miss workload")
        return problems


class Remote(Driver):
    """A workload whose service is a front-door child behind the SDK."""

    def bringup(self) -> None:
        transport = "json" if self.transport == "json" else "auto"
        self.service = RemoteSketchServer(self.url, transport=transport)

    def quality_estimates(self, sqls):
        return [r.estimate for r in self.service.estimate_many(sqls)]


class StreamHot(Remote):
    """Binary ``estimate_many(256)``: Zipf draws from a hot set the cache
    holds, plus a fixed share of cycled queries it has already evicted."""

    name = "stream_hot"
    transport = REMOTE["stream_hot"]
    #: Fill the LRU: the cycled queries it has room for, then the hot set.
    warmup_calls = RESULT_LRU // BATCH
    pass_calls = 40

    def load(self) -> None:
        super().load()
        weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_S
        self.weights = weights / weights.sum()
        self.rng = np.random.default_rng([self.seed, 1])

    def call(self, thread: int, k: int):
        fill = (RESULT_LRU - HOT_POOL) // BATCH
        if k < fill:
            index = HOT_POOL + np.arange(k * BATCH, (k + 1) * BATCH)
        elif k < self.warmup_calls:
            index = np.arange((k - fill) * BATCH, (k - fill + 1) * BATCH)
        else:
            index = self.rng.choice(HOT_POOL, size=BATCH, p=self.weights)
            first = fill * BATCH + (k - self.warmup_calls) * FRESH_PER_BATCH
            slots = self.rng.choice(BATCH, size=FRESH_PER_BATCH, replace=False)
            # The cycled part is longer than the LRU (POOL_SIZE), so a
            # query that comes round again has been evicted: still a miss.
            index[slots] = HOT_POOL + (first + np.arange(FRESH_PER_BATCH)) % POOL_SIZE
        batch = [self.sql[i] for i in index]
        t0 = time.perf_counter()
        responses = self.service.estimate_many(batch)
        t1 = time.perf_counter()
        return judge(
            [r.estimate for r in responses], [r.ok for r in responses],
            [self.ref[i] for i in index],
        ).timed(t0, t1)

    def validity(self, before, after):
        problems = super().validity(before, after)
        requests = after["requests"] - before["requests"]
        share = (after["cache_hits"] - before["cache_hits"]) / max(requests, 1)
        if not HOT_HIT_BAND[0] <= share <= HOT_HIT_BAND[1]:
            problems.append(f"hit share {share:.3f} outside {HOT_HIT_BAND}")
        return problems


class AdhocJson(Remote):
    """Two closed-loop threads, one distinct ``estimate(sql)`` per call
    over the JSON door."""

    name = "adhoc_json"
    transport = REMOTE["adhoc_json"]
    clients = ADHOC_CLIENTS
    warmup_calls = 8
    pass_calls = 40

    def call(self, thread: int, k: int):
        i = (k * self.clients + thread) % len(self.sql)
        t0 = time.perf_counter()
        response = self.service.estimate(self.sql[i])
        t1 = time.perf_counter()
        return judge([response.estimate], [response.ok], [self.ref[i]]).timed(t0, t1)

    def validity(self, before, after):
        problems = super().validity(before, after)
        hits = after["cache_hits"] - before["cache_hits"]
        if hits:
            problems.append(f"{hits} result-cache hits on distinct ad-hoc queries")
        return problems


class PlanRemote(Remote):
    """Binary ``plan(sql)`` over cycled JOB-light-shaped queries."""

    name = "plan_remote"
    transport = REMOTE["plan_remote"]
    warmup_calls = 128
    pass_calls = 600

    def load(self) -> None:
        super().load()
        plans = self.inputs["plans"]
        self.sql = plans["sql"]
        self.ref_order, self.ref_cost = plans["ref_order"], plans["ref_cost"]
        #: Kept for the traced run's plan-layer metrics.
        self.responses: list = []

    def first_answer(self) -> bool:
        probe = self.probe()
        response = self.service.plan(probe["sql"])
        return (
            response.ok
            and rel_diff(response.estimated_cost, probe["value"]) <= PARITY_TOL
            and protocol.plan_response_to_wire(response)["plan"] == probe["plan"]
        )

    def _judge(self, i: int, response) -> Outcome:
        if not response.ok or response.degraded:
            return Outcome(1, 1)
        if i >= len(self.ref_order):
            return Outcome(1)
        gap = rel_diff(response.estimated_cost, self.ref_cost[i])
        same = response.join_order == self.ref_order[i] and gap <= PARITY_TOL
        return Outcome(1, 0 if same else 1, gap)

    def call(self, thread: int, k: int):
        i = k % len(self.sql)
        t0 = time.perf_counter()
        response = self.service.plan(self.sql[i])
        t1 = time.perf_counter()
        self.responses.append(response)
        return self._judge(i, response).timed(t0, t1)

    def quality_estimates(self, sqls):
        # The full query is the last sub-plan a plan response lists.
        return [self.service.plan(sql).subplans[-1].estimate for sql in sqls]


class BuildSketch(Driver):
    """Repeated ``build_sketch`` rounds; one call is one round."""

    name = "build_sketch"
    warmup_calls = 1
    pass_calls = 2
    quality_of = "build"

    class _Ready(Exception):
        pass

    def bringup(self) -> None:
        self.db = make_db()
        self.spec = spec_for_imdb()
        self.first = None  # estimates of the first round's sketch
        self.sketch = None
        self.reports: list = []
        self.watches: list = []

    def first_answer(self) -> bool:
        """Start a build and stop at its first ``define`` progress event."""

        def progress(event):
            raise self._Ready(event.stage)

        try:
            build_sketch(
                self.db, self.spec, config=build_config(), progress=progress, seed=self.seed
            )
        except self._Ready as ready:
            return ready.args[0] == "define"
        return False

    def call(self, thread: int, k: int):
        watch = BuildWatch()
        t0 = time.perf_counter()
        self.sketch, report = build_sketch(
            self.db, self.spec, name="imdb", config=build_config(),
            progress=watch, seed=self.seed,
        )
        t1 = time.perf_counter()
        self.reports.append(report)
        self.watches.append(watch)
        # Same seed, same inputs: every round must train the same model.
        estimates = self.sketch.estimate_many(self.quality()[0], use_cache=False)
        if self.first is None:
            self.first = estimates
        gap = float(np.max(np.abs(estimates - self.first) / self.first))
        whole = (
            report.n_queries_generated == BUILD_QUERIES
            and len(report.training.epochs) == BUILD_EPOCHS
            and gap <= PARITY_TOL
        )
        outcome = Outcome(BUILD_QUERIES, 0 if whole else BUILD_QUERIES, gap)
        return outcome.timed(t0, t1, watch.epoch_ms())

    def quality(self):
        # An untraced run has no prepare child; the set is cheap to make.
        if "quality" not in self.inputs:
            queries, truth = quality_set(self.db)
            self.inputs["quality"] = {"sql": [q.to_sql() for q in queries], "truth": truth}
        return super().quality()

    def close(self) -> None:
        self.db = self.sketch = None

    def stats(self) -> dict:
        return {}

    def validity(self, before, after):
        return []

    def quality_estimates(self, sqls):
        return self.sketch.estimate_many(sqls, use_cache=False).tolist()


DRIVERS = {
    cls.name: cls for cls in (BuildSketch, StreamCold, StreamHot, AdhocJson, PlanRemote)
}
