"""One child process of the benchmark.

``run.py`` spawns these and merges what they print; a child is the only
kind of process that imports ``repro``.  Roles:

``prepare``    build the fixture sketch and this run's seeded inputs
``coldstart``  fresh interpreter -> first correct answer -> ``ready``
``server``     the HTTP + binary front door, as deployed, until SIGTERM
``measure``    bring a workload up, warm it, measure it (or trace it)

Every role prints one JSON object as its last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

from common import (
    BATCH,
    CHILD_ENV,
    COVERAGE_BAND,
    LEDGER_ROUNDS,
    QERROR_CEILING_FACTOR,
    QERROR_P50_AT_DEFINITION,
    REMOTE,
    SLICES,
    SRC,
    OUT,
    median,
    steady,
    tail,
)

for _name, _value in CHILD_ENV.items():
    if os.environ.get(_name) != _value:
        sys.exit(f"child must be spawned with {_name}={_value} (use run.py)")
if not (SRC / "repro").is_dir():
    sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

_T0 = time.perf_counter()
import repro  # noqa: E402,F401 - timed: the import is most of a cold start

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def ready() -> None:
    """Tell the parent the first correct answer is out (it stamps the time)."""
    print("ready", flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of a process have used.

    Summed from ``/proc/<pid>/task/*/schedstat`` (ns): ``/proc/<pid>/stat``
    counts in 10 ms ticks, a fifth of what the ``adhoc_json`` server uses
    in one slice.  The front door's threads (acceptor, flush loop, one per
    kept-alive connection) live for the whole window.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as f:
                total += int(f.read().split()[0])
        except OSError:
            continue  # the thread ended between listing and reading
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# roles: prepare, coldstart, server
# ----------------------------------------------------------------------
def role_prepare(args) -> None:
    from drivers import prepare

    emit(prepare(args.workload, args.seed, Path(args.tmp), bool(args.trace)))


def role_coldstart(args) -> None:
    from drivers import DRIVERS

    driver = DRIVERS[args.workload](Path(args.tmp), args.seed)
    driver.bringup()
    if not driver.first_answer():
        sys.exit("cold start: first answer is wrong")
    ready()
    emit({"process.import_s": IMPORT_S})


def role_server(args) -> None:
    from drivers import SERVE_CONFIG
    from repro.core import DeepSketch
    from repro.demo.manager import SketchManager
    from repro.serve import SketchHTTPServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    t0 = time.perf_counter()
    manager = SketchManager()
    manager.register_sketch(DeepSketch.load(str(Path(args.tmp) / "imdb.sketch")))
    server = SketchHTTPServer(manager, SERVE_CONFIG, host="127.0.0.1", port=0).start()
    bringup_s = time.perf_counter() - t0
    print(f"listening {server.url}", flush=True)
    stop.wait()
    t0 = time.perf_counter()
    server.close()
    emit(
        {
            "process.import_s": IMPORT_S,
            "process.bringup_s": bringup_s,
            "process.teardown_s": time.perf_counter() - t0,
        }
    )


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Loop:
    """Closed-loop client threads over one driver.

    Each thread issues its next call when the previous one returns.  The
    per-thread call index lives here so warm-up, passes and windows
    continue one stream.
    """

    def __init__(self, driver, server_pid: int | None):
        self.driver = driver
        self.server_pid = server_pid
        self.tracer = None
        self.next_call = [0] * driver.clients

    def cpu_s(self) -> float:
        """CPU used so far by the measuring process plus the server child."""
        own = time.process_time()
        return own + (proc_cpu_s(self.server_pid) if self.server_pid else 0.0)

    def sample(self) -> tuple[float, float]:
        return time.perf_counter(), self.cpu_s()

    def _client(self, thread, outcomes, edges, stop, calls, boundaries):
        k = self.next_call[thread]
        last = None if calls is None else k + calls
        while not stop.is_set() and (last is None or k < last):
            # A traced pass puts a span around every other call, so the two
            # kinds see the same cache warmth and the same machine.
            began = time.perf_counter()
            traced = self.tracer is not None and k % 2 == 1
            if traced:
                with self.tracer.span("call", op=f"{thread}:{k}"):
                    outcome = self.driver.call(thread, k)
            else:
                outcome = self.driver.call(thread, k)
            outcome.traced, outcome.wall = traced, time.perf_counter() - began
            outcomes.append(outcome)
            k += 1
            # Thread 0 closes a slice at the first call that returns past
            # its boundary, so a slice's ops, wall and CPU are read at the
            # same instant and no call straddles two slices.
            if thread == 0 and boundaries and time.perf_counter() >= boundaries[0]:
                edges.append(self.sample())
                while boundaries and edges[-1][0] >= boundaries[0]:
                    boundaries.pop(0)
                if not boundaries:
                    stop.set()
        self.next_call[thread] = k

    def run(self, *, seconds: float | None = None, calls: int | None = None):
        """Run for ``seconds`` cut into SLICES slices, or for ``calls``
        calls per thread (one slice).  Returns ``(outcomes, edges)``,
        edges being ``(perf_counter, cpu_s)`` at the slice edges."""
        outcomes = [[] for _ in range(self.driver.clients)]
        stop = threading.Event()
        edges = [self.sample()]
        boundaries = (
            [edges[0][0] + i * seconds / SLICES for i in range(1, SLICES + 1)]
            if seconds is not None
            else []
        )
        threads = [
            threading.Thread(
                target=self._client,
                args=(t, outcomes[t], edges, stop, calls, boundaries),
            )
            for t in range(self.driver.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if seconds is None:
            edges.append(self.sample())
        return [o for per_thread in outcomes for o in per_thread], edges


def window_metrics(outcomes, edges) -> tuple[dict, dict]:
    """The three timed end-to-end metrics of one window, and their samples.

    ``edges`` are ``(perf_counter, cpu_s)`` at the slice edges.  Each
    slice gives one value per metric -- ops per second, median call
    latency, CPU ms per op -- and ``steady`` picks the reported one.
    """
    slices = []
    for (t0, c0), (t1, c1) in zip(edges, edges[1:]):
        inside = [o for o in outcomes if t0 < o.t1 <= t1]
        ops = sum(o.ops for o in inside)
        if ops and c1 > c0:
            latencies = [ms for o in inside for ms in o.latencies_ms]
            slices.append((ops / (t1 - t0), median(latencies), (c1 - c0) * 1000.0 / ops))
    qps, p50_ms, cpu_ms = zip(*slices)
    latencies = [ms for o in outcomes for ms in o.latencies_ms]
    pct, value = tail(latencies)
    metrics = {
        "throughput_qps": steady(qps, "higher"),
        "latency_p50_ms": steady(p50_ms, "lower"),
        "cpu_ms_per_op": steady(cpu_ms, "lower"),
    }
    samples = {
        "latency": len(latencies),
        "slices": [[round(v, 4) for v in row] for row in slices],
        "latency_tail_pct": pct,
        "latency_tail_ms": value,
    }
    return metrics, samples


def quality_gate(driver) -> tuple[dict, list[str]]:
    from repro.metrics import qerrors

    sqls, truth = driver.quality()
    errors = qerrors(driver.quality_estimates(sqls), truth)
    p50 = float(np.median(errors))
    ceiling = QERROR_CEILING_FACTOR * QERROR_P50_AT_DEFINITION[driver.quality_of]
    problems = []
    if p50 > ceiling:
        problems.append(f"qerror p50 {p50:.3f} above ceiling {ceiling:.3f}")
    return {
        "quality.qerror_p50": p50,
        "quality.qerror_p95": float(np.percentile(errors, 95)),
    }, problems


# ----------------------------------------------------------------------
# role: measure
# ----------------------------------------------------------------------
def role_measure(args) -> None:
    from drivers import DRIVERS

    tmp = Path(args.tmp)
    driver = DRIVERS[args.workload](tmp, args.seed, args.url)
    t0 = time.perf_counter()
    driver.bringup()
    if not driver.first_answer():
        sys.exit("measure: first answer is wrong")
    bringup_s = time.perf_counter() - t0
    ready()
    driver.load()

    tracer = None
    if args.trace:
        from ledger import Tracer

        tracer = Tracer()
    loop = Loop(driver, args.server_pid)
    loop.run(calls=driver.warmup_calls)

    if args.workload == "build_sketch":
        measured = measure_rounds(driver, loop, args, tracer)
    elif args.trace:
        measured = measure_traced(driver, loop, args, tracer)
    else:
        measured = measure_window(driver, loop, args)
    outcomes, problems, metrics, samples, ledger_parity = measured

    quality, quality_problems = quality_gate(driver)
    problems += quality_problems
    t0 = time.perf_counter()
    driver.close()
    teardown_s = time.perf_counter() - t0

    attempted = sum(o.ops for o in outcomes)
    parity = max([o.gap for o in outcomes] + [ledger_parity])
    if args.trace:
        metrics.update(quality)
        metrics["quality.parity_max_rel"] = parity
        metrics["process.import_s"] = IMPORT_S
        if not args.server_pid:  # the server child reports its own
            metrics["process.bringup_s"] = bringup_s
            metrics["process.teardown_s"] = teardown_s
        OUT.mkdir(exist_ok=True)
        tracer.dump(
            OUT / f"{args.workload}.trace.json",
            {"workload": args.workload, "seed": args.seed},
        )
    else:
        metrics["peak_rss_mb"] = (
            proc_peak_rss_mb(args.server_pid) if args.server_pid else peak_rss_mb()
        )
    emit(
        {
            "metrics": metrics,
            "samples": samples,
            "attempted": attempted,
            "failed": attempted if problems else sum(o.failed for o in outcomes),
            "problems": problems,
            "parity_max_rel": parity,
        }
    )


def measure_window(driver, loop: Loop, args):
    """The untraced timed window behind the end-to-end metrics."""
    before = driver.stats()
    outcomes, edges = loop.run(seconds=args.seconds)
    problems = driver.validity(before, driver.stats())
    return (outcomes, problems, *window_metrics(outcomes, edges), 0.0)


def measure_rounds(driver, loop: Loop, args, tracer):
    """``build_sketch``: one round is one slice.  An untraced run does
    rounds until the window is used up; a traced run does a fixed number
    and turns each round's progress events into spans."""
    rounds = max(1, round(driver.pass_calls * args.scale)) if args.trace else None
    outcomes, edges = [], []
    start = time.perf_counter()
    while len(outcomes) < rounds if rounds else time.perf_counter() - start < args.seconds:
        (outcome,), around = loop.run(calls=1)
        outcomes.append(outcome)
        edges += around  # the gap between two rounds holds no op and is skipped
    metrics, samples = window_metrics(outcomes, edges)
    if not args.trace:
        return outcomes, [], metrics, samples, 0.0

    from drivers import builder_metrics

    reports, watches = driver.reports[-len(outcomes):], driver.watches[-len(outcomes):]
    for op, (outcome, watch) in enumerate(zip(outcomes, watches)):
        build_spans(tracer, op, outcome, watch)
    # Spans come from the progress callback every run already has,
    # so there is no separate traced pass and no tracing overhead.
    extra = {"trace.overhead_share": 0.0}
    layers, parity = traced_layers(driver, args, tracer, samples, extra)
    per_round = [builder_metrics(r, w) for r, w in zip(reports, watches)]
    for name in per_round[0]:
        layers[name] = median(m[name] for m in per_round)
    return outcomes, [], layers, samples, parity


def build_spans(tracer, op: int, outcome, watch) -> None:
    """One ``round`` span with a child per stage and per training epoch."""
    parent = tracer.add("round", outcome.t0, outcome.t1, op=op)
    previous, stage_start, train = outcome.t0, {}, None
    for stage, _, t in watch.events:
        stage_start.setdefault(stage, previous)
        if stage == "train":
            if train is None:
                train = tracer.add("core.builder.train", stage_start[stage], outcome.t1, parent, op)
            tracer.add("core.training.epoch", previous, t, train, op)
        previous = t
    for stage in ("define", "generate", "execute"):
        ends = [t for s, _, t in watch.events if s == stage]
        tracer.add(f"core.builder.{stage}", stage_start[stage], ends[-1], parent, op)


def counters(before: dict, after: dict) -> dict:
    """Deltas of the engine's public telemetry over one pass."""
    if not after:
        return {}

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    requests = delta("requests")
    flushes = max(delta("flushes", "total"), 1)
    computed = requests - delta("cache_hits") - delta("deduped") - delta("errors")
    return {
        "serve.engine.requests": requests,
        "serve.engine.cache_hit_share": delta("cache_hits") / max(requests, 1),
        "serve.engine.fast_cache_hit_share": delta("fast_cache_hits") / max(requests, 1),
        "serve.engine.dedup_share": delta("deduped") / max(requests, 1),
        "serve.engine.forward_batches": delta("forward_batches"),
        "serve.engine.mean_batch_size": computed / max(delta("forward_batches"), 1),
        "serve.engine.flush_full_share": delta("flushes", "full") / flushes,
        "serve.engine.flush_timed_share": delta("flushes", "timed") / flushes,
        "serve.engine.flush_idle_share": delta("flushes", "idle") / flushes,
        "serve.engine.queue_wait_p50_ms": after["queue_wait"]["p50"] * 1000.0,
        "serve.engine.flush_latency_p50_ms": after["flush_latency"]["p50"] * 1000.0,
        "serve.engine.shed": delta("shed"),
        "serve.engine.deadline_missed": delta("deadline_missed"),
        "serve.engine.errors": delta("errors"),
        "serve.engine.executor_fallbacks": delta("executor_fallbacks"),
    }


def measure_traced(driver, loop: Loop, args, tracer):
    """A traced run: one untraced pass of a fixed number of calls (the
    counters), the same number again with a span around every other call
    (``trace.overhead_share``), then the ledger rounds."""
    calls = max(1, round(driver.pass_calls * args.scale))
    before = driver.stats()
    own0, all0 = time.process_time(), loop.cpu_s()
    outcomes, edges = loop.run(calls=calls)
    own1, all1 = time.process_time(), loop.cpu_s()
    after = driver.stats()
    problems = driver.validity(before, after)
    _, samples = window_metrics(outcomes, edges)

    loop.tracer = tracer
    traced_outcomes, _ = loop.run(calls=calls)
    loop.tracer = None
    plain, spanned = (
        median(o.wall / o.ops for o in traced_outcomes if o.traced is kind)
        for kind in (False, True)
    )

    ops = sum(o.ops for o in outcomes)
    extra = counters(before, after)
    if args.server_pid:
        timings = driver.service.timings()
        wire_us = timings["wire"]["p50"] * 1e6
        server_us = timings["server"]["p50"] * 1e6
        extra.update(
            {
                "serve.client.wire_p50_us": wire_us,
                "serve.client.server_p50_us": server_us,
                "serve.client.marshal_us": wire_us - server_us,
                "serve.client.connections_opened": sum(
                    timings["connections_opened"].values()
                ),
                "serve.client.cpu_us_per_op": (own1 - own0) * 1e6 / ops,
                "serve.http.server_cpu_us_per_op": ((all1 - all0) - (own1 - own0)) * 1e6 / ops,
                "serve.http.server_rss_mb": proc_peak_rss_mb(args.server_pid),
                "serve.http.healthz_rtt_ms": healthz_rtt_ms(driver.service),
            }
        )
    extra["trace.overhead_share"] = 1.0 - plain / spanned
    layers, parity = traced_layers(driver, args, tracer, samples, extra)
    low, high = COVERAGE_BAND
    if args.workload == "stream_cold" and not low <= layers["trace.coverage"] <= high:
        problems.append(f"trace.coverage {layers['trace.coverage']:.3f} outside {COVERAGE_BAND}")
    return outcomes + traced_outcomes, problems, layers, samples, parity


def healthz_rtt_ms(client, n: int = 12) -> float:
    """Kept-alive ``GET /v1/healthz``: the JSON door's floor, no engine work."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        client.healthz()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return median(samples)


def traced_layers(driver, args, tracer, samples: dict, extra: dict):
    """Every per-layer metric this process can measure, and the ledger's
    worst parity gap."""
    from drivers import make_db
    from ledger import PLANS_PER_ROUND, Ledger, Tracer, plan_metrics
    from repro.workload import spec_for_imdb

    inputs = driver.inputs
    ledger = Ledger(tracer, str(Path(args.tmp) / "imdb.sketch"), make_db(), spec_for_imdb())
    pool, plans = inputs["pool"]["sql"], inputs["plans"]["sql"]
    rounds = max(1, round(LEDGER_ROUNDS * args.scale))
    # The collector stays off while the ledger runs, as ``timeit`` does: a
    # full pass walks the ~220k objects ``import repro`` leaves (~100 ms)
    # and lands on whichever span crosses the threshold.
    gc.disable()
    try:
        # Two unrecorded rounds first: the ledger's service is fresh, and
        # its first chunks pay for buffer pools and cold memos.
        for r in range(-2, rounds):
            ledger.tracer = tracer if r >= 0 else Tracer()
            # The last chunks of the pool: the ones a short window has not served.
            lo = len(pool) - (r + 3) * BATCH
            at = ((r + 2) * PLANS_PER_ROUND) % (len(plans) - PLANS_PER_ROUND + 1)
            ledger.round(r, pool[lo : lo + BATCH], plans[at : at + PLANS_PER_ROUND])
    finally:
        gc.enable()

    layers = ledger.metrics()
    served_plans = getattr(driver, "responses", None) or ledger.plan_responses
    if served_plans:
        layers.update(plan_metrics(served_plans))
    layers.update(extra)
    layers["client.latency_tail_ms"] = samples["latency_tail_ms"]
    layers["client.latency_tail_pct"] = samples["latency_tail_pct"]
    return layers, ledger.parity


ROLES = {
    "prepare": role_prepare,
    "coldstart": role_coldstart,
    "server": role_server,
    "measure": role_measure,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", default="stream_cold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrinks the count-based passes of a traced run")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--url")
    parser.add_argument("--server-pid", type=int)
    args = parser.parse_args()
    if (args.workload in REMOTE) != bool(args.url) and args.role == "measure":
        parser.error("remote workloads need --url and --server-pid; others must not")
    ROLES[args.role](args)


if __name__ == "__main__":
    main()
