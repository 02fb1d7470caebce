"""Replay a templated suite as a skewed, bursty, open-loop stream.

The serving tier (PRs 1-6) was exercised with uniform 512-query
streams; production traffic is nothing like that.  A
:class:`TrafficShaper` turns any :class:`~repro.workload.suite.TemplateSuite`
into the three properties real workloads have:

* **skew** — templates are drawn from a Zipfian popularity mix
  (:func:`repro.datasets.distributions.zipf_weights`), with the
  popularity ranking itself seeded, so "which template is hot" varies
  by seed but is reproducible;
* **bursts** — arrivals follow an on/off pattern: Poisson arrivals at
  ``rate_qps`` during ON windows of ``burst_on_s``, silence for
  ``burst_off_s`` between them;
* **open loop** — submission times come from the schedule, not from
  response completion, so a slow server faces a growing queue exactly
  like a real front door (this is what makes admission control
  observable).

``replay()`` drives any :class:`~repro.serve.service.SketchService`
(sync server, async server, remote SDK, gateway — anything with
``submit``) and audits the outcome: every submitted future must
resolve (zero hung futures) and every failure must carry a structured
code from :data:`repro.serve.engine.RESPONSE_CODES`.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from ..metrics import percentile
from ..rng import SeedLike, make_rng
from .query import Query
from .suite import TemplateSuite


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the replayed stream."""

    n_requests: int = 256
    #: Zipf exponent of the template mix; 0 = uniform popularity.
    zipf_s: float = 1.1
    #: Poisson arrival rate inside ON windows (requests/second).
    rate_qps: float = 2000.0
    burst_on_s: float = 0.05
    burst_off_s: float = 0.10
    #: Multiplier on every scheduled gap at replay time; 0 submits the
    #: whole schedule as fast as possible (tests), 1 replays real time.
    time_scale: float = 1.0
    #: Per-future wait bound when collecting; a future still unresolved
    #: after this is counted as hung (it is never re-awaited).
    timeout_s: float = 60.0

    def __post_init__(self):
        if self.n_requests < 1:
            raise ReproError(f"n_requests must be positive, got {self.n_requests}")
        if self.zipf_s < 0:
            raise ReproError(f"zipf_s must be non-negative, got {self.zipf_s}")
        if self.rate_qps <= 0:
            raise ReproError(f"rate_qps must be positive, got {self.rate_qps}")
        if self.burst_on_s <= 0:
            raise ReproError(f"burst_on_s must be positive, got {self.burst_on_s}")
        if self.burst_off_s < 0:
            raise ReproError(
                f"burst_off_s must be non-negative, got {self.burst_off_s}"
            )
        if self.time_scale < 0:
            raise ReproError(f"time_scale must be non-negative, got {self.time_scale}")
        if self.timeout_s <= 0:
            raise ReproError(f"timeout_s must be positive, got {self.timeout_s}")


@dataclass(frozen=True)
class ScheduledRequest:
    """One arrival: when, which template, which instance."""

    at_s: float
    template: str
    query: Query


@dataclass
class ReplayResult:
    """What happened when a schedule was replayed against a service."""

    n_requests: int = 0
    n_ok: int = 0
    n_cached: int = 0
    #: Failures by structured code (RESPONSE_CODES keys only).
    code_counts: dict[str, int] = field(default_factory=dict)
    #: Futures that never resolved within the timeout — must be 0.
    n_unresolved: int = 0
    #: ok=False responses without a recognized structured code — must be 0.
    n_unstructured: int = 0
    per_template: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    achieved_qps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_max_ms: float = 0.0

    @property
    def n_failed(self) -> int:
        return sum(self.code_counts.values()) + self.n_unstructured

    @property
    def structured_only(self) -> bool:
        """True when every failure carried a known structured code."""
        return self.n_unstructured == 0

    @property
    def zero_hung(self) -> bool:
        return self.n_unresolved == 0

    @property
    def ok(self) -> bool:
        """The audit: nothing hung, nothing unstructured, answers add up."""
        return (
            self.zero_hung
            and self.structured_only
            and self.n_ok + self.n_failed == self.n_requests
        )

    def audit(self) -> dict:
        """JSON-friendly audit block (the bench gates read this)."""
        return {
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_cached": self.n_cached,
            "n_failed": self.n_failed,
            "code_counts": dict(sorted(self.code_counts.items())),
            "n_unresolved": self.n_unresolved,
            "n_unstructured": self.n_unstructured,
            "zero_hung": self.zero_hung,
            "structured_only": self.structured_only,
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
            "achieved_qps": self.achieved_qps,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
                "max": self.latency_max_ms,
            },
            "per_template": dict(sorted(self.per_template.items())),
        }


class TrafficShaper:
    """Schedules and replays a suite as skewed + bursty open-loop load."""

    def __init__(
        self,
        suite: TemplateSuite,
        config: TrafficConfig | None = None,
        seed: SeedLike = None,
    ):
        if len(suite) == 0:
            raise ReproError("cannot shape traffic from an empty suite")
        self.suite = suite
        self.config = config or TrafficConfig()
        self.rng = make_rng(seed)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def template_weights(self) -> dict[str, float]:
        """Zipfian popularity per template (ranking seeded)."""
        from ..datasets.distributions import zipf_weights

        names = list(self.suite.names)
        ranking = [names[int(i)] for i in self.rng.permutation(len(names))]
        weights = zipf_weights(len(ranking), s=self.config.zipf_s)
        return {name: float(w) for name, w in zip(ranking, weights)}

    def schedule(self) -> list[ScheduledRequest]:
        """Draw the full arrival schedule (deterministic given the seed).

        Inter-arrival gaps are exponential at ``rate_qps`` on the ON-time
        axis; wall-clock times are that axis with ``burst_off_s`` of
        silence spliced in after every ``burst_on_s`` of ON time.
        """
        cfg = self.config
        weights = self.template_weights()
        names = list(weights)
        probs = np.array([weights[n] for n in names], dtype=np.float64)
        entries = {t.name: t for t in self.suite.templates}

        gaps = self.rng.exponential(1.0 / cfg.rate_qps, size=cfg.n_requests)
        on_times = np.cumsum(gaps)
        # Splice the OFF windows in: every completed ON window of length
        # burst_on_s pushes later arrivals out by burst_off_s.
        wall_times = on_times + np.floor(on_times / cfg.burst_on_s) * cfg.burst_off_s

        picks = self.rng.choice(len(names), size=cfg.n_requests, p=probs)
        scheduled: list[ScheduledRequest] = []
        for at_s, pick in zip(wall_times, picks):
            entry = entries[names[int(pick)]]
            query = entry.queries[int(self.rng.integers(0, len(entry.queries)))]
            scheduled.append(
                ScheduledRequest(at_s=float(at_s), template=entry.name, query=query)
            )
        return scheduled

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(
        self,
        service,
        schedule: list[ScheduledRequest] | None = None,
        on_response=None,
    ) -> ReplayResult:
        """Submit the schedule open-loop against ``service`` and audit.

        ``service`` is any :class:`~repro.serve.service.SketchService`;
        for a caller-driven :class:`~repro.serve.server.SketchServer`
        (which resolves futures only at a flush) the shaper calls
        ``flush()`` once after the last submission, so the audit
        semantics are identical across services.

        ``on_response`` is an optional callable invoked once per
        *resolved* response, in collection order, with
        ``(response, resolved_at)`` where ``resolved_at`` is the
        ``time.perf_counter()`` instant the future's done-callback fired.
        Hot-swap audits use it to record which snapshot ``token``
        answered each request against the swap timeline; unresolved
        (hung) futures never reach it.
        """
        from ..serve.engine import RESPONSE_CODES

        cfg = self.config
        if schedule is None:
            schedule = self.schedule()
        result = ReplayResult(n_requests=len(schedule))

        records: list[tuple[str, float, object, list]] = []
        start = time.perf_counter()
        for request in schedule:
            if cfg.time_scale > 0:
                target = start + request.at_s * cfg.time_scale
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            submitted = time.perf_counter()
            future = service.submit(request.query)
            done_at: list[float] = []
            future.add_done_callback(
                lambda _f, box=done_at: box.append(time.perf_counter())
            )
            records.append((request.template, submitted, future, done_at))
        if not getattr(service, "started", True):
            service.flush()  # a caller-driven SketchServer

        latencies_ms: list[float] = []
        deadline = time.perf_counter() + cfg.timeout_s
        for template, submitted, future, done_at in records:
            result.per_template[template] = result.per_template.get(template, 0) + 1
            remaining = deadline - time.perf_counter()
            try:
                response = future.result(timeout=max(remaining, 0.0))
            except (TimeoutError, _FutureTimeout):
                result.n_unresolved += 1
                continue
            except Exception:
                # SketchService futures resolve with structured
                # responses, never raise; anything else is unstructured.
                result.n_unstructured += 1
                continue
            resolved = done_at[0] if done_at else time.perf_counter()
            latencies_ms.append((resolved - submitted) * 1000.0)
            if on_response is not None:
                on_response(response, resolved)
            if getattr(response, "ok", False):
                result.n_ok += 1
                if getattr(response, "cached", False):
                    result.n_cached += 1
            else:
                code = getattr(response, "code", None)
                if code in RESPONSE_CODES:
                    result.code_counts[code] = result.code_counts.get(code, 0) + 1
                else:
                    result.n_unstructured += 1
        result.wall_seconds = time.perf_counter() - start
        if result.wall_seconds > 0:
            result.achieved_qps = result.n_requests / result.wall_seconds
        if latencies_ms:
            result.latency_p50_ms = percentile(latencies_ms, 0.50)
            result.latency_p95_ms = percentile(latencies_ms, 0.95)
            result.latency_p99_ms = percentile(latencies_ms, 0.99)
            result.latency_max_ms = max(latencies_ms)
        return result
