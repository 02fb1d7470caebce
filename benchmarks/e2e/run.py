"""The repo's benchmark: one command, five workloads, every metric by name.

    python benchmarks/e2e/run.py --workload <name|all> --seed <int>
        [--seconds S] [--trace 0|1] [--smoke] [--record FILE]

``--seconds`` is how the driver passes ``run_seconds`` of
``BENCHMARK.json``, which is also its default.

This process only spawns children (``child.py``) and merges the JSON
they print; it never imports numpy or ``repro``, so nothing measured
inherits memory from it.  Per workload:

1. ``prepare`` child: synthetic IMDb, fixture sketch, seeded inputs and
   their reference answers, into a fresh temp dir under ``out/``.
2. ``coldstart`` x COLD_STARTS: fresh interpreter to first correct
   answer, timed here from spawn to the child's ``ready`` line (for the
   remote workloads: to this process's own JSON request being answered
   correctly by a fresh ``server`` child).
3. ``measure`` child: bring-up, count-based warm-up, the timed window.
   With ``--trace 1`` it instead runs an untraced and a traced pass of a
   fixed number of calls plus the layer ledger, and the cold starts are
   skipped.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace 1``
the per-layer metrics).  Exit status is 1 if any gate failed.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path

from common import (
    CHILD_ENV,
    COLD_STARTS,
    NOT_APPLICABLE,
    OUT,
    PARITY_TOL,
    REMOTE,
    ROOT,
    WORKLOADS,
    child_argv,
    child_env,
    median,
)

CHILD_TIMEOUT_S = 150.0


class Children:
    """Every process this run started; all are gone when it exits."""

    def __init__(self):
        self.live: list[subprocess.Popen] = []

    def spawn(self, role: str, *args) -> subprocess.Popen:
        proc = subprocess.Popen(
            child_argv(role, *args), stdout=subprocess.PIPE, text=True, env=child_env()
        )
        self.live.append(proc)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        proc.watchdog = watchdog
        return proc

    def finish(self, proc: subprocess.Popen) -> dict:
        """Wait for a child; return the JSON object on its last line."""
        out = proc.stdout.read()
        code = proc.wait()
        proc.watchdog.cancel()
        self.live.remove(proc)
        if code != 0:
            raise SystemExit(f"child {proc.args[2]} exited with {code}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self, proc: subprocess.Popen) -> None:
        proc.kill()
        proc.wait()
        proc.watchdog.cancel()
        self.live.remove(proc)

    def reap(self) -> None:
        for proc in list(self.live):
            self.kill(proc)


def await_line(proc: subprocess.Popen, prefix: str) -> str:
    """Block until the child prints a line starting with ``prefix``."""
    for line in proc.stdout:
        if line.startswith(prefix):
            return line.strip()
    raise SystemExit(f"child {proc.args[2]} ended before printing {prefix!r}")


def probe_answers(url: str, probe: dict) -> bool:
    """One request over the documented JSON door; is the answer correct?"""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        body = json.dumps({"protocol_version": 1, "sql": probe["sql"], "sketch": None})
        conn.request("POST", probe["path"], body, {"Content-Type": "application/json"})
        answer = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    value = answer.get(probe["field"])
    if not answer.get("ok") or value is None:
        return False
    close = abs(value - probe["value"]) <= PARITY_TOL * abs(probe["value"])
    return close and answer.get("plan") == probe.get("plan")


class Run:
    """One workload, one seed."""

    def __init__(self, workload: str, args, run_seconds: float):
        self.workload = workload
        self.args = args
        #: The one place ``--seconds`` is compared with ``run_seconds``: a
        #: shorter run (``--smoke``) shrinks the count-based passes of a
        #: traced run by this factor; a longer one only lengthens windows.
        self.scale = min(1.0, args.seconds / run_seconds)
        self.children = Children()
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.common = ("--workload", workload, "--seed", args.seed, "--tmp", self.tmp)

    # -- the front door, for the three remote workloads -----------------
    def start_server(self):
        """Spawn a server child; returns ``(proc, url, setup_s)`` with
        setup measured to this process's first correct answer."""
        probe = json.loads((self.tmp / "probe.json").read_text())
        t0 = time.monotonic()
        proc = self.children.spawn("server", *self.common)
        url = await_line(proc, "listening").split()[1]
        if not probe_answers(url, probe):
            raise SystemExit("server: first answer is wrong")
        return proc, url, time.monotonic() - t0

    def stop_server(self, proc, graceful: bool) -> dict:
        """SIGTERM drains and reports the server's own timings (~2 s, so
        only a traced run asks for it); otherwise the child is killed."""
        if graceful:
            proc.terminate()
            return self.children.finish(proc)
        self.children.kill(proc)
        return {}

    # -- steps -----------------------------------------------------------
    def cold_start(self) -> float:
        if self.workload in REMOTE:
            proc, _, setup_s = self.start_server()
            self.stop_server(proc, graceful=False)
            return setup_s
        t0 = time.monotonic()
        proc = self.children.spawn("coldstart", *self.common)
        await_line(proc, "ready")
        setup_s = time.monotonic() - t0
        self.children.finish(proc)
        return setup_s

    def measure(self) -> tuple[dict, dict, float]:
        """Returns the measure child's record, the server child's (if
        any), and one more set-up sample."""
        extra, server = (), None
        t0 = time.monotonic()
        if self.workload in REMOTE:
            server, url, setup_s = self.start_server()
            extra = ("--url", url, "--server-pid", server.pid)
        proc = self.children.spawn(
            "measure", *self.common, "--seconds", self.args.seconds,
            "--scale", self.scale, "--trace", self.args.trace, *extra,
        )
        await_line(proc, "ready")
        if server is None:
            setup_s = time.monotonic() - t0
        record = self.children.finish(proc)
        served = self.stop_server(server, bool(self.args.trace)) if server else {}
        return record, served, setup_s

    def run(self) -> dict:
        args, trace = self.args, bool(self.args.trace)
        prepared = {"metrics": {}, "digests": {}}
        stamps = [time.monotonic()]
        try:
            if self.workload != "build_sketch" or trace:
                prepared = self.children.finish(
                    self.children.spawn("prepare", *self.common, "--trace", args.trace)
                )
            stamps.append(time.monotonic())
            cold_starts = 0 if trace else 1 if args.smoke else COLD_STARTS
            setups = [self.cold_start() for _ in range(cold_starts)]
            stamps.append(time.monotonic())
            record, served, setup_s = self.measure()
            stamps.append(time.monotonic())
            setups.append(setup_s)
        finally:
            self.children.reap()
            shutil.rmtree(self.tmp, ignore_errors=True)

        if trace:
            metrics = {**prepared["metrics"], **served, **record["metrics"]}
        else:
            metrics = {**record["metrics"], "setup_s": median(setups)}
        phases = (round(b - a, 2) for a, b in zip(stamps, stamps[1:]))
        return {
            "workload": self.workload,
            "seed": args.seed,
            "trace": int(trace),
            "seconds": args.seconds,
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "problems": record["problems"],
            "metrics": metrics,
            "samples": {
                "setup_s": setups,
                **record["samples"],
                "phase_s": dict(zip(("prepare", "cold_starts", "measure"), phases)),
            },
            "parity_max_rel": record["parity_max_rel"],
            "digests": prepared["digests"],
        }


def listed_metrics(workload: str, measured: dict, wanted: list[dict]) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` lists, each with its unit.

    A listed metric the run did not produce is an error, unless the
    workload has nothing to measure it on (``NOT_APPLICABLE``): then it
    reads 0.  So is a produced metric that is not listed.
    """
    names = [m["name"] for m in wanted]
    missing = [
        n for n in names
        if n not in measured and not n.startswith(NOT_APPLICABLE.get(workload, ()))
    ]
    unlisted = sorted(set(measured) - set(names))
    if missing or unlisted:
        raise SystemExit(f"{workload}: not measured {missing}; not in BENCHMARK.json {unlisted}")
    return {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }


def context() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "child_env": CHILD_ENV,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s windows and one cold start: checks the plumbing, not the speed")
    parser.add_argument("--record", type=Path,
                        help="append each workload's full record to this JSON-lines file")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1.0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    machine = context()
    print("context", json.dumps(machine))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = Run(workload, args, spec["run_seconds"]).run()
        print(f"workload {workload} seed {args.seed} trace {args.trace}")
        print(f"  ops attempted {result['attempted']} failed {result['failed']}"
              f"  parity_max_rel {result['parity_max_rel']:.3g}  digests {result['digests']}")
        print(f"  samples {json.dumps(result['samples'])}")
        for problem in result["problems"]:
            print(f"  GATE FAILED: {problem}")
        metrics = listed_metrics(workload, result["metrics"], wanted)
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if args.record:
            with args.record.open("a") as f:
                measured = sorted(result["metrics"])
                f.write(json.dumps(
                    {**result, "metrics": metrics, "measured": measured, "context": machine}
                ) + "\n")
        status |= not result["correct"]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
