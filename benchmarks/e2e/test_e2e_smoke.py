"""Smoke test of the benchmark's plumbing (not of the program's speed).

    python -m pytest benchmarks/e2e -q        # ~2 min; outside tier-1

Runs every workload in ``--smoke`` mode (1 s windows, one cold start),
untraced and traced, and checks the output schema against
``BENCHMARK.json``, input determinism, span consistency, and that a run
leaves nothing behind.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from common import COVERAGE_BAND, NOT_APPLICABLE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def results(lines: list[str]) -> list[dict]:
    """The result objects a run printed, one per workload."""
    return [json.loads(line) for line in lines if line.startswith('{"correct"')]


def records(path: Path) -> dict[str, dict]:
    return {r["workload"]: r for r in map(json.loads, path.read_text().splitlines())}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    record = tmp_path_factory.mktemp("e2e") / "untraced.jsonl"
    lines = run("--workload", "all", "--seed", "1", "--smoke", "--record", str(record))
    return lines, records(record)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    record = tmp_path_factory.mktemp("e2e") / "traced.jsonl"
    lines = run(
        "--workload", "all", "--seed", "1", "--smoke", "--trace", "1", "--record", str(record)
    )
    return lines, records(record)


def check_schema(lines, recorded, listed):
    assert list(recorded) == WORKLOADS
    # What the children measured is what BENCHMARK.json lists, but for
    # the metrics a workload has nothing to measure on.
    for workload, record in recorded.items():
        absent = {m["name"] for m in listed} - set(record["measured"])
        assert all(name.startswith(NOT_APPLICABLE.get(workload, ())) for name in absent), absent
        assert set(record["measured"]) <= {m["name"] for m in listed}
    printed = results(lines)
    assert len(printed) == len(WORKLOADS)
    assert json.loads(lines[-1]) == printed[-1], "the result must be the last line"
    for result in printed:
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            got = result["metrics"][metric["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_untraced_output_is_exactly_the_end_to_end_metrics(untraced):
    lines, recorded = untraced
    check_schema(lines, recorded, SPEC["end_to_end"])
    for result in results(lines):
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for workload in WORKLOADS[1:]:  # a serving process never trained
        assert recorded[workload]["metrics"]["peak_rss_mb"]["value"] < 300


def test_traced_output_is_exactly_the_per_layer_metrics(traced):
    lines, recorded = traced
    check_schema(lines, recorded, SPEC["per_layer"])
    for workload, record in recorded.items():
        value = {k: v["value"] for k, v in record["metrics"].items()}
        assert value["trace.missing"] == 0
        assert value["quality.parity_max_rel"] <= 1e-9
        for counter in ("shed", "deadline_missed", "errors", "executor_fallbacks"):
            assert value[f"serve.engine.{counter}"] == 0
        assert (value["serve.http.healthz_rtt_ms"] > 0) == (workload in (
            "stream_hot", "adhoc_json", "plan_remote"))
    coverage = recorded["stream_cold"]["metrics"]["trace.coverage"]["value"]
    assert COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]


def test_same_seed_same_inputs_other_seed_other_inputs(untraced, tmp_path):
    _, first = untraced
    again, other = tmp_path / "again.jsonl", tmp_path / "other.jsonl"
    run("--workload", "stream_cold", "--seed", "1", "--smoke", "--record", str(again))
    run("--workload", "stream_cold", "--seed", "2", "--smoke", "--record", str(other))
    digests = first["stream_cold"]["digests"]
    assert digests and records(again)["stream_cold"]["digests"] == digests
    assert records(other)["stream_cold"]["digests"] != digests
    # One seed, one pool (stream_hot's also holds its hot set).
    assert first["adhoc_json"]["digests"] == digests


def test_spans_nest(traced):
    for workload in WORKLOADS:
        trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
        spans = trace["spans"]
        assert trace["context"]["workload"] == workload and spans
        covered = [0.0] * len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                continue
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["op"] == parent["op"]
            covered[span["parent"]] += span["end"] - span["start"]
        # Self time = span - children: children never outlast a parent.
        for span, inside in zip(spans, covered):
            assert inside <= (span["end"] - span["start"]) * (1 + 1e-9) + 1e-9
        assert min(trace["self_time_s"].values()) >= -1e-9
        names = {span["name"] for span in spans}
        assert "ledger.round" in names and "replay" in names


def test_nothing_is_left_behind(untraced, traced):
    assert not glob.glob(str(HERE / "out" / "run-*")), "temp dir not removed"
    assert not glob.glob("/dev/shm/sketchshm_*"), "leaked shared-memory segment"
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        assert b"e2e/child.py" not in cmdline, f"leaked child process {pid}"
