"""Sketch serving: one estimation API everywhere, local or remote.

The paper's pitch is that a Deep Sketch is "fast to query (within
milliseconds)"; this package turns the one-query-at-a-time estimation
path into a throughput-oriented serving subsystem.  The public surface
is the :class:`SketchService` protocol — ``submit`` / ``submit_many`` /
``estimate`` / ``serve`` / ``plan`` / ``stats_summary`` / ``close`` —
with interchangeable implementations, so swapping in-process serving
for a network round trip is a one-line change:

* :class:`SketchServer` — in-process.  Caller-driven until
  :meth:`~SketchServer.start`: flushes happen on ``flush()`` (or inside
  ``estimate`` / ``serve``), right for offline streams and benchmarks.
  Started, a background loop flushes under full/timed/idle/drain
  triggers and ``submit()`` is thread-safe (``submit_async()`` for
  ``asyncio``), bounding tail latency while sharing one flush across
  all waiting clients.
* :class:`RemoteSketchServer` — the client SDK: the same surface over
  the versioned wire protocol (:mod:`repro.serve.protocol`) to a
  :class:`SketchHTTPServer` front door.
* :class:`SketchGateway` — the multi-node tier: the same surface over
  N backend front doors, with fleet-wide routing, sharding +
  replication, health-checked failover, and merged telemetry
  (:mod:`repro.serve.gateway`).  Front it with
  ``SketchHTTPServer(service=gateway)`` and it speaks wire v1 on both
  sides.

Underneath every implementation sits one transport-agnostic
:class:`EstimationEngine` — parse, route, dedup, result-cache fast
path, **admission control** (bounded queue with structured shed
responses and per-request deadlines), per-sketch micro-batching,
execution, scatter — and pluggable executors
(:mod:`repro.serve.executor`): ``inline`` (calling thread;
bit-identical to the pre-engine paths) or ``process``
(true multi-core scale-out over estimation-only
:meth:`~repro.core.sketch.DeepSketch.replica` sketches).  The HTTP
front door (:mod:`repro.serve.http`) is pure request/response
marshalling over that engine, so concurrent HTTP clients batch, dedup,
and cache-hit together exactly like in-process submitters.

All implementations produce estimates numerically identical to the
single-query path (see ``docs/serving.md`` § *Numerical parity caveat*)
and share one telemetry snapshot —
``service.stats_summary()`` / ``EstimationEngine.stats()`` /
``GET /v1/stats`` — wired into :mod:`repro.metrics` gauges, counters,
and latency summaries.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".client": ("RemoteSketchServer",),
        ".engine": (
            "CODE_DEADLINE",
            "CODE_INTERNAL",
            "CODE_PARSE",
            "CODE_ROUTE",
            "CODE_SHED",
            "CODE_VOCAB",
            "RESPONSE_CODES",
            "EstimateResponse",
            "EstimationEngine",
            "ServeConfig",
            "ServerStats",
            "answer_chunk",
            "prepare_request",
        ),
        ".executor": (
            "EXECUTOR_NAMES",
            "InlineExecutor",
            "ProcessExecutor",
            "make_executor",
        ),
        ".feature_cache": ("FeatureCache",),
        ".gateway": ("SketchGateway",),
        ".http": ("SketchHTTPServer", "healthz_payload"),
        ".lifecycle": ("PHASES", "LifecycleConfig", "LifecycleManager"),
        ".plan": (
            "CODE_PLAN",
            "PLAN_RESPONSE_CODES",
            "PlanResponse",
            "SubplanEstimate",
            "plan_failure",
            "plan_query",
        ),
        ".protocol": ("PROTOCOL_VERSION",),
        ".registry": ("SketchRegistry",),
        ".server": ("SketchServer",),
        ".service": ("SketchService",),
        ".shm": ("SegmentDescriptor", "SnapshotSegment", "live_segment_names"),
        ".wire": ("WIRE_VERSION", "BinaryFrameServer"),
    },
)

__all__ = [
    "EstimationEngine",
    "SketchServer",
    "SketchService",
    "ServeConfig",
    "ServerStats",
    "RemoteSketchServer",
    "SketchGateway",
    "SketchHTTPServer",
    "SketchRegistry",
    "LifecycleConfig",
    "LifecycleManager",
    "PHASES",
    "healthz_payload",
    "PROTOCOL_VERSION",
    "CODE_DEADLINE",
    "CODE_INTERNAL",
    "CODE_PARSE",
    "CODE_PLAN",
    "CODE_ROUTE",
    "CODE_SHED",
    "CODE_VOCAB",
    "RESPONSE_CODES",
    "PLAN_RESPONSE_CODES",
    "PlanResponse",
    "SubplanEstimate",
    "plan_failure",
    "plan_query",
    "EXECUTOR_NAMES",
    "FeatureCache",
    "EstimateResponse",
    "InlineExecutor",
    "ProcessExecutor",
    "answer_chunk",
    "make_executor",
    "prepare_request",
    "BinaryFrameServer",
    "WIRE_VERSION",
    "SegmentDescriptor",
    "SnapshotSegment",
    "live_segment_names",
]
