"""`SketchGateway` — sharded multi-node serving with failover.

The fourth :class:`~repro.serve.service.SketchService` implementation:
one logical estimation service fanned out over N backend HTTP front
doors (:class:`~repro.serve.http.SketchHTTPServer`), each reached
through the :class:`~repro.serve.client.RemoteSketchServer` SDK.  The
gateway speaks wire-protocol v1 on both sides — it is a
``RemoteSketchServer`` client downstream and (served through a
``SketchHTTPServer``) a v1 server upstream — so a client cannot tell a
gateway from a single node, and gateways front other gateways for
free.

Responsibilities, in fleet terms:

* **Parse + route at the gateway.**  Requests go through the engine's
  own :func:`~repro.serve.engine.prepare_request`, with the fleet
  table in place of a sketch store: a
  :class:`~repro.core.manager.SketchTables` built from each live
  backend's ``GET /v1/healthz`` (the additive ``tables`` field maps
  every sketch to the tables it covers).  So a query routes to the
  sketch a single node's store would pick, parse and route failures
  read the same, and no model is held.  Dispatch pins the request to
  the routed name so backends never re-route.
* **Sharding + replication.**  A sketch registered on one backend is a
  shard; the same sketch name on several backends makes those backends
  replicas.  Requests round-robin across a sketch's *live* replicas,
  so replicating a hot sketch scales its throughput with the replica
  count.
* **Health checking.**  A daemon thread probes every backend's
  ``/v1/healthz`` on a fixed interval, reviving backends that return
  and refreshing the routing table as sketches appear and disappear.
* **Failover with bounded backoff.**  Estimates are idempotent, so
  transport faults are retried against the next live replica:
  connection loss (:class:`~repro.errors.RemoteConnectionError` — the
  request never executed) fails over immediately; timeouts
  (:class:`~repro.errors.RemoteTimeoutError`) and HTTP 5xx retry after
  an exponentially growing, capped backoff.  HTTP 4xx and
  :class:`~repro.errors.ProtocolError` are never retried — the request
  (or the deployment) is wrong and will be wrong everywhere.
* **Structured degradation, zero hung futures.**  When no live replica
  holds the routed sketch — or every attempt is exhausted — the caller
  receives a *value*: an ``ok=False`` response with ``code="shed"``.
  Unroutable requests (no sketch in the whole fleet covers the tables)
  get ``code="route"``, malformed SQL ``code="parse"`` — the same
  closed code set as every other implementation.  Every future
  returned by ``submit``/``submit_many`` resolves.
* **Plan advisory pass-through.**  :meth:`plan` routes a whole
  join-order request to one live replica whose sketch covers the join
  graph *and* that advertises the ``plan`` capability in healthz; the
  answer is one downstream round trip with the same failover.  A fleet
  that cannot cover the join graph answers ``code="route"``, a fleet
  with no capable live replica ``code="shed"`` — structured values,
  never hangs, even when a backend dies mid-plan.
* **One fleet view.**  :meth:`stats_summary` merges each backend's
  engine snapshot into a fleet-wide aggregate next to the gateway's
  own routing/failover counters and the raw per-backend snapshots.

Typical use::

    with SketchGateway(["http://node1:8080", "http://node2:8080"]) as gw:
        response = gw.estimate("SELECT COUNT(*) FROM title t ...")
        print(gw.stats_summary()["fleet"])

or fronted by HTTP (wire v1 on both sides)::

    gateway = SketchGateway(backends)
    with SketchHTTPServer(service=gateway, port=8080) as door:
        door.join()

or from the CLI: ``repro gateway --backend http://node1:8080 ...``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, Sequence

from ..core.manager import SketchTables
from ..errors import (
    ProtocolError,
    RemoteConnectionError,
    RemoteHTTPError,
    RemoteServerError,
    SketchError,
)
from ..metrics import Counter, Gauge, LatencySummary
from ..db.query import Query
from .client import RemoteSketchServer
from .engine import CODE_SHED, EstimateResponse, prepare_request

#: Upper bound on one failover backoff sleep (seconds); the growth is
#: exponential below it.
MAX_BACKOFF_S = 1.0


class _Backend:
    """One backend front door: its client, liveness, and sketch map."""

    __slots__ = (
        "url",
        "client",
        "alive",
        "sketches",
        "versions",
        "plan_ok",
        "probe_failures",
    )

    def __init__(self, url: str, client: RemoteSketchServer):
        self.url = url
        self.client = client
        self.alive = False
        #: sketch name -> tuple of covered tables (from /v1/healthz).
        self.sketches: dict[str, tuple[str, ...]] = {}
        #: sketch name -> {"token", "registry_version"} (from healthz;
        #: empty for backends that predate version surfacing).
        self.versions: dict[str, dict] = {}
        #: whether healthz advertises the plan advisory capability.
        self.plan_ok = False
        self.probe_failures = 0


class _NoLiveReplica(Exception):
    """Internal: dispatch exhausted every live replica of a sketch."""

    def __init__(self, sketch: str, attempts: int, cause: Exception | None):
        self.sketch = sketch
        self.attempts = attempts
        self.cause = cause
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"request shed: no live replica of sketch {sketch!r} "
            f"answered after {attempts} attempt(s){detail}"
        )


class SketchGateway:
    """One logical estimation service over N backend front doors.

    ``backends`` are base URLs (``http://host:port``).  ``timeout``
    bounds each downstream round trip; ``retries`` is the number of
    *additional* attempts after the first (each against the next live
    replica, with capped exponential backoff starting at
    ``backoff_s``); ``health_interval_s`` paces the background health
    probes (``None`` disables the thread — probes then only happen at
    construction and via :meth:`refresh`).  ``connection_workers``
    sizes the pool behind the non-blocking ``submit`` surface.
    ``client_factory`` (url -> client) exists for fault-injection
    tests.

    Thread-safe: any number of caller threads may submit concurrently.
    """

    def __init__(
        self,
        backends: Sequence[str],
        *,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        health_interval_s: float | None = 1.0,
        connection_workers: int = 8,
        client_factory=None,
    ):
        if not backends:
            raise SketchError("a gateway needs at least one backend URL")
        if retries < 0:
            raise SketchError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise SketchError(f"backoff_s must be >= 0, got {backoff_s}")
        if health_interval_s is not None and health_interval_s <= 0:
            raise SketchError(
                "health_interval_s must be positive (or None to disable), "
                f"got {health_interval_s}"
            )
        factory = client_factory or (
            lambda url: RemoteSketchServer(url, timeout=timeout)
        )
        seen = set()
        self._backends: list[_Backend] = []
        for url in backends:
            url = url.rstrip("/")
            if url in seen:
                raise SketchError(f"duplicate backend URL {url!r}")
            seen.add(url)
            self._backends.append(_Backend(url, factory(url)))
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)

        self._state_lock = threading.Lock()
        #: sketch name -> backends currently advertising it (replicas).
        self._routes: dict[str, list[_Backend]] = {}
        #: sketch name -> covered tables: what requests route on.
        self._fleet = SketchTables()
        self._rr: dict[str, int] = {}  # round-robin cursors per sketch

        # Gateway-own telemetry (the backends keep their own engines').
        self.n_requests = Counter()
        self.n_answered = Counter()
        self.n_errors = Counter()
        self.n_retries = Counter()
        self.n_failovers = Counter()
        self.n_shed = Counter()
        self.inflight = Gauge()
        self.wire_latency = LatencySummary(window=8192)

        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._workers = int(connection_workers)
        self._closed = False

        self.refresh()  # synchronous first probe: route immediately
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if health_interval_s is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                args=(float(health_interval_s),),
                name="sketch-gateway-health",
                daemon=True,
            )
            self._health_thread.start()

    # ------------------------------------------------------------------
    # fleet discovery
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Probe every backend's ``/v1/healthz`` and rebuild the routes."""
        for backend in self._backends:
            self._probe(backend)
        self._rebuild_routes()

    def _probe(self, backend: _Backend) -> None:
        try:
            health = backend.client.healthz()
        except (RemoteServerError, ProtocolError):
            backend.alive = False
            backend.probe_failures += 1
            return
        names = health.get("sketches") or []
        tables = health.get("tables") or {}
        versions = health.get("versions") or {}
        backend.sketches = {
            str(name): tuple(tables.get(name, ())) for name in names
        }
        backend.versions = {
            str(name): dict(versions[name])
            for name in names
            if isinstance(versions.get(name), dict)
        }
        backend.plan_ok = bool(health.get("plan"))
        backend.alive = True
        backend.probe_failures = 0
        # Transport negotiation rides the probe for free: the payload in
        # hand is exactly what the client's negotiation would re-fetch,
        # so backends that advertise the binary transport get it picked
        # before the first estimate ever flows.  Best-effort — injected
        # fake clients may not negotiate at all.
        negotiate = getattr(backend.client, "negotiate_transport", None)
        if negotiate is not None:
            try:
                negotiate(health)
            except (RemoteServerError, ProtocolError):
                pass  # JSON keeps working; the next probe may retry

    def _rebuild_routes(self) -> None:
        routes: dict[str, list[_Backend]] = {}
        fleet = SketchTables()
        for backend in self._backends:
            if not backend.alive:
                continue
            for name, tables in backend.sketches.items():
                routes.setdefault(name, []).append(backend)
                # An older backend may not advertise tables: its sketch
                # still takes pins, but covers nothing.
                if tables or name not in fleet:
                    fleet[name] = frozenset(tables)
        with self._state_lock:
            self._routes = routes
            self._fleet = fleet

    def _health_loop(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            try:
                self.refresh()
            except Exception:
                # The probe loop must survive anything: a dead loop
                # means dead backends never revive.
                continue

    # ------------------------------------------------------------------
    # parse + route (gateway-side; no model state involved)
    # ------------------------------------------------------------------
    def describe_sketches(self) -> dict[str, tuple[str, ...]]:
        """Fleet-wide sketch -> covered-tables map (for healthz)."""
        return {name: tuple(sorted(t)) for name, t in self._fleet.items()}

    def describe_versions(self) -> dict[str, dict]:
        """Fleet-wide version view per sketch (for healthz/operators).

        ``registry_version`` is the fleet-comparable coordinate (stamped
        by :class:`~repro.serve.registry.SketchRegistry` at save time);
        snapshot *tokens* are process-local counters and deliberately
        not aggregated.  Each sketch maps to::

            {"registry_version": <the one version every live replica
                                  runs, else None>,
             "consistent": <bool>,
             "replicas": {url: registry_version-or-None, ...}}

        so a fleet mid-rollout (or with a wedged backend after a death
        mid-swap) is visible as ``consistent: false``.
        """
        per_sketch: dict[str, dict] = {}
        for backend in self._backends:
            if not backend.alive:
                continue
            for name in backend.sketches:
                entry = per_sketch.setdefault(
                    name, {"replicas": {}}
                )
                info = backend.versions.get(name) or {}
                entry["replicas"][backend.url] = info.get("registry_version")
        for entry in per_sketch.values():
            seen = set(entry["replicas"].values())
            entry["consistent"] = len(seen) == 1
            entry["registry_version"] = seen.pop() if len(seen) == 1 else None
        return per_sketch

    def list_sketches(self) -> list[str]:
        """Sorted names of every sketch a live backend advertises."""
        with self._state_lock:
            return sorted(self._routes)

    def backend_status(self) -> dict[str, dict]:
        """url -> ``{"alive": bool, "sketches": [names]}`` per backend."""
        return {
            b.url: {"alive": b.alive, "sketches": sorted(b.sketches)}
            for b in self._backends
        }

    @property
    def pending(self) -> int:
        """Round trips currently in flight through this gateway."""
        return int(self.inflight.value)

    # ------------------------------------------------------------------
    # dispatch with failover
    # ------------------------------------------------------------------
    def _pick_replica(
        self, sketch: str, tried: set[int], capable=None
    ) -> _Backend | None:
        """Next live replica of ``sketch``, round-robin; prefers
        backends not yet tried for this request (timeout retries may
        revisit one when nothing else is live).  ``capable`` narrows
        the candidates further (e.g. to plan-capable backends)."""
        with self._state_lock:
            replicas = [
                b
                for b in self._routes.get(sketch, ())
                if b.alive and (capable is None or capable(b))
            ]
            if not replicas:
                return None
            fresh = [b for b in replicas if id(b) not in tried] or replicas
            cursor = self._rr.get(sketch, -1) + 1
            self._rr[sketch] = cursor
            return fresh[cursor % len(fresh)]

    def _call_with_failover(self, sketch: str, call, capable=None):
        """Run ``call(backend)`` against live replicas until one answers.

        Retry policy by fault class (see :mod:`repro.errors`):
        connection loss fails over immediately (the request never
        executed); timeouts and HTTP 5xx back off then retry (estimates
        are idempotent); HTTP 4xx and protocol errors propagate — they
        are wrong everywhere.  Raises :class:`_NoLiveReplica` when the
        attempt budget is exhausted or no replica is live (or none
        passes ``capable``).
        """
        attempts = self.retries + 1
        delay = self.backoff_s
        tried: set[int] = set()
        last: Exception | None = None
        made = 0
        for attempt in range(attempts):
            backend = self._pick_replica(sketch, tried, capable)
            if backend is None:
                break
            tried.add(id(backend))
            made += 1
            if attempt > 0:
                self.n_retries.inc()
            try:
                return call(backend)
            except ProtocolError:
                raise
            except RemoteHTTPError as exc:
                if exc.status < 500:
                    raise
                last = exc
                backend.alive = False
                self.n_failovers.inc()
            except RemoteConnectionError as exc:
                last = exc
                backend.alive = False
                self.n_failovers.inc()
                continue  # never executed: no backoff before the replica
            except RemoteServerError as exc:  # timeout or unclassified
                last = exc
                backend.alive = False
                self.n_failovers.inc()
            if attempt + 1 < attempts and delay > 0:
                time.sleep(min(delay, MAX_BACKOFF_S))
                delay *= 2
        raise _NoLiveReplica(sketch, made, last)

    def _shed(self, response: EstimateResponse, exc: _NoLiveReplica) -> EstimateResponse:
        response.error = str(exc)
        response.code = CODE_SHED
        return response

    def _finish(self, response: EstimateResponse) -> EstimateResponse:
        if response.ok:
            self.n_answered.inc()
        else:
            self.n_errors.inc()
            if response.code == CODE_SHED:
                self.n_shed.inc()
        return response

    # ------------------------------------------------------------------
    # the SketchService surface
    # ------------------------------------------------------------------
    def estimate(
        self, request: Query | str, sketch: str | None = None
    ) -> EstimateResponse:
        """One request through the fleet: route, dispatch, fail over."""
        if self._closed:
            raise RemoteServerError("gateway is closed")
        self.n_requests.inc()
        prepared = prepare_request(self._fleet, request, sketch)
        if not prepared.ok:
            return self._finish(prepared)
        t0 = time.perf_counter()
        self.inflight.adjust(1)
        try:
            response = self._call_with_failover(
                prepared.sketch,
                lambda b: b.client.estimate(request, prepared.sketch),
            )
        except _NoLiveReplica as exc:
            return self._finish(self._shed(prepared, exc))
        finally:
            self.inflight.adjust(-1)
            self.wire_latency.observe(time.perf_counter() - t0)
        return self._finish(response)

    def estimate_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """A whole batch, partitioned per routed sketch: one downstream
        ``estimate_batch`` round trip per sketch group, results in
        submission order."""
        futures = self.submit_many(requests, sketch)
        return [future.result() for future in futures]

    def submit(self, request: Query | str, sketch: str | None = None):
        """Non-blocking enqueue; the future always resolves (structured
        responses for parse/route/shed outcomes, an exception only for
        protocol-level faults that would be wrong on every replica)."""
        return self._ensure_pool().submit(self.estimate, request, sketch)

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ):
        """Amortized fan-out: requests are routed locally, grouped by
        sketch, and each group travels as one wire round trip to a live
        replica (failing over as a group); one future per request, in
        submission order, every one of which resolves."""
        if self._closed:
            raise RemoteServerError("gateway is closed")
        requests = list(requests)
        futures: list[Future[EstimateResponse]] = [Future() for _ in requests]
        for future in futures:
            future.set_running_or_notify_cancel()
        if not requests:
            return futures
        groups: dict[str, list[tuple[int, EstimateResponse]]] = {}
        for i, request in enumerate(requests):
            self.n_requests.inc()
            prepared = prepare_request(self._fleet, request, sketch)
            if not prepared.ok:
                futures[i].set_result(self._finish(prepared))
            else:
                groups.setdefault(prepared.sketch, []).append((i, prepared))
        pool = self._ensure_pool()
        for name, members in groups.items():
            pool.submit(self._run_group, name, members, requests, futures)
        return futures

    def _run_group(
        self,
        name: str,
        members: list[tuple[int, EstimateResponse]],
        requests: list,
        futures: list,
    ) -> None:
        """One sketch group's round trip (runs on the pool)."""
        indices = [i for i, _prepared in members]
        group = [requests[i] for i in indices]
        t0 = time.perf_counter()
        self.inflight.adjust(1)
        try:
            responses = self._call_with_failover(
                name, lambda b: b.client.estimate_many(group, name)
            )
        except _NoLiveReplica as exc:
            for i, prepared in members:
                futures[i].set_result(self._finish(self._shed(prepared, exc)))
            return
        except BaseException as exc:  # protocol faults: resolve, never hang
            for i in indices:
                self.n_errors.inc()
                futures[i].set_exception(exc)
            return
        finally:
            self.inflight.adjust(-1)
            self.wire_latency.observe(time.perf_counter() - t0)
        for i, response in zip(indices, responses):
            futures[i].set_result(self._finish(response))

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """Submit a stream and block for all responses (submission order)."""
        return self.estimate_many(list(requests), sketch)

    def plan(self, request: Query | str, sketch: str | None = None):
        """Join-order advice through the fleet, as one downstream call.

        The gateway parses and routes locally — the whole join graph
        must be covered by **one** sketch on a live, plan-capable
        backend (feature-detected via healthz's ``plan`` field), since
        the subplan batch runs against a single engine.  The plan
        request then travels as one wire round trip with the usual
        failover.  Every failure path resolves to a structured
        :class:`~repro.serve.plan.PlanResponse`: unroutable join graphs
        ``code="route"``, malformed SQL ``code="parse"``, no capable
        live replica (or budget exhausted, e.g. a backend dying
        mid-plan) ``code="shed"``.
        """
        from .plan import plan_failure

        if self._closed:
            raise RemoteServerError("gateway is closed")
        self.n_requests.inc()
        prepared = prepare_request(self._fleet, request, sketch)
        if not prepared.ok:
            self.n_errors.inc()
            return plan_failure(
                request, prepared.error, prepared.code, query=prepared.query
            )
        t0 = time.perf_counter()
        self.inflight.adjust(1)
        try:
            response = self._call_with_failover(
                prepared.sketch,
                lambda b: b.client.plan(request, prepared.sketch),
                capable=lambda b: b.plan_ok,
            )
        except _NoLiveReplica as exc:
            self.n_errors.inc()
            self.n_shed.inc()
            return plan_failure(
                request,
                str(exc),
                CODE_SHED,
                query=prepared.query,
                sketch=prepared.sketch,
            )
        finally:
            self.inflight.adjust(-1)
            self.wire_latency.observe(time.perf_counter() - t0)
        if response.ok:
            self.n_answered.inc()
        else:
            self.n_errors.inc()
            if response.code == CODE_SHED:
                self.n_shed.inc()
        return response

    def healthz(self) -> dict:
        """The gateway's own liveness payload (same shape a fronting
        :class:`~repro.serve.http.SketchHTTPServer` serves)."""
        from .http import healthz_payload

        return healthz_payload(self)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    #: Engine-snapshot counters summed into the fleet view.
    _FLEET_SUMS = (
        "requests",
        "answered",
        "errors",
        "shed",
        "deadline_missed",
        "cache_hits",
        "fast_cache_hits",
        "deduped",
        "forward_batches",
        "executor_fallbacks",
    )

    def stats_summary(self) -> dict:
        """Gateway counters + per-backend snapshots + one fleet view.

        ``gateway`` is this process's routing/failover accounting;
        ``backends`` maps each URL to its engine's ``stats_summary()``
        snapshot (``None`` when the backend is down); ``fleet`` sums
        the engine counters across live backends — the whole deployment
        as if it were one server.
        """
        per_backend: dict[str, dict | None] = {}
        for backend in self._backends:
            summary = None
            if backend.alive:
                try:
                    summary = backend.client.stats_summary()
                except (RemoteServerError, ProtocolError):
                    backend.alive = False
            per_backend[backend.url] = summary
        live = [s for s in per_backend.values() if s is not None]
        fleet: dict = {key: 0 for key in self._FLEET_SUMS}
        fleet["flushes"] = {}
        fleet["sketch_requests"] = {}
        fleet["backends_live"] = len(live)
        fleet["backends_total"] = len(self._backends)
        for summary in live:
            for key in self._FLEET_SUMS:
                value = summary.get(key)
                if isinstance(value, (int, float)):
                    fleet[key] += value
            for trigger, count in (summary.get("flushes") or {}).items():
                fleet["flushes"][trigger] = (
                    fleet["flushes"].get(trigger, 0) + count
                )
            for name, count in (summary.get("sketch_requests") or {}).items():
                fleet["sketch_requests"][name] = (
                    fleet["sketch_requests"].get(name, 0) + count
                )
        with self._state_lock:
            sketches = {
                name: [b.url for b in replicas]
                for name, replicas in self._routes.items()
            }
        return {
            "gateway": {
                "requests": self.n_requests.value,
                "answered": self.n_answered.value,
                "errors": self.n_errors.value,
                "shed": self.n_shed.value,
                "retries": self.n_retries.value,
                "failovers": self.n_failovers.value,
                "inflight": int(self.inflight.value),
                "wire_latency": self.wire_latency.summary(),
                "sketches": sketches,
                "versions": self.describe_versions(),
                "transports": {
                    b.url: getattr(b.client, "active_transport", None)
                    for b in self._backends
                },
            },
            "backends": per_backend,
            "fleet": fleet,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RemoteServerError("gateway is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="sketch-gateway",
                )
            return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop health checks, finish in-flight round trips, release
        the backend clients (idempotent; backends are not affected)."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(5.0)
        if pool is not None:
            pool.shutdown(wait=True)
        for backend in self._backends:
            backend.client.close()

    def __enter__(self) -> "SketchGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        live = sum(b.alive for b in self._backends)
        state = "closed" if self._closed else "open"
        return (
            f"SketchGateway(backends={len(self._backends)}, live={live}, "
            f"{state})"
        )


__all__ = ["MAX_BACKOFF_S", "SketchGateway"]
