"""`RemoteSketchServer` — the client SDK of the estimation service.

The third :class:`~repro.serve.service.SketchService` implementation:
the same ``submit`` / ``submit_many`` / ``estimate`` / ``serve`` /
``plan`` / ``stats_summary`` / ``close`` surface as the in-process
:class:`~repro.serve.server.SketchServer`, spoken over the versioned
wire protocol to a :class:`~repro.serve.http.SketchHTTPServer`.
Swapping the local server for remote serving is a one-line change::

    service = SketchServer(manager)                    # before
    service = RemoteSketchServer("http://host:8080")   # after
    with service:
        response = service.estimate(sql)               # unchanged

Stdlib-only (``http.client`` + ``socket``), deliberately: the SDK must
import anywhere the library does.

Transports.  The SDK speaks two, over the same protocol v1 envelopes:

* **JSON/HTTP** (:mod:`repro.serve.protocol`) — the compatibility
  transport and the control surface (``stats_summary``/``healthz`` are
  always JSON).  Connections are **keep-alive**: a small pool of
  ``http.client`` connections is reused across round trips instead of
  the connect-per-request behavior this SDK used to have — at
  micro-benchmark request sizes the TCP handshake *was* a measurable
  slice of the ~1.2ms/request JSON overhead.  :attr:`connections_opened`
  counts real TCP connects so the transport bench can gate the
  regression.
* **Binary frames** (:mod:`repro.serve.wire`) — the fast path: one
  persistent socket per client slot, length-prefixed struct-packed
  frames, no HTTP parsing, no JSON.  Negotiated, never assumed: the
  first estimate fetches ``/v1/healthz`` and switches to binary only if
  the server advertises ``transports.binary`` at this build's
  :data:`~repro.serve.wire.WIRE_VERSION` (``transport="json"`` /
  ``"binary"`` pin the choice; default ``"auto"``).  Servers without
  the capability — or version-skewed ones — keep speaking JSON.

Semantics worth knowing:

* **Responses are values, never exceptions.**  Request-level failures
  (parse/route/vocab/shed/deadline) arrive as ``ok=False``
  :class:`~repro.serve.engine.EstimateResponse` objects with the same
  structured ``code`` a local caller would see — identical dispatch
  code on both sides of the wire, identical on both transports.  Only
  *transport* failures (connection refused, truncated frame, version
  skew) raise — :class:`~repro.errors.RemoteServerError` or
  :class:`~repro.errors.ProtocolError`.
* **submit() is non-blocking.**  A small thread pool issues the round
  trip and resolves the returned future; ``submit_many`` sends the
  whole batch as **one** round trip (one server-side amortized intake)
  and fans the batch response out to per-request futures.
* **Batching still happens server-side.**  Concurrent ``submit`` calls
  from many client processes coalesce in the server's engine exactly
  like concurrent in-process submitters; the SDK adds no client-side
  waiting.
* ``server_ms`` timings from response envelopes are accumulated into
  :meth:`timings` so callers can split wire overhead from serving time
  (the transport benchmark does).
"""

from __future__ import annotations

import functools
import http.client
import json
import socket
import threading
import time
import urllib.parse
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, Sequence

from ..errors import (
    ProtocolError,
    RemoteConnectionError,
    RemoteHTTPError,
    RemoteServerError,
    RemoteTimeoutError,
)
from ..metrics import LatencySummary
from ..db.query import Query
from .engine import EstimateResponse
from .plan import PlanResponse
from .schema import ERROR, OPERATIONS, from_json, pack, to_json, unpack
from . import wire

#: ``transport=`` choices: negotiate, or pin either transport.
TRANSPORTS = ("auto", "json", "binary")

_OPERATION = {op.name: op for op in OPERATIONS}


class _ConnectionPool:
    """A free-list of keep-alive connections, whichever transport dials them.

    ``dial()`` makes a new connection (an ``http.client`` connection or
    a raw binary-frame socket).  ``acquire`` hands back an idle
    connection or dials a new one — counted in ``opened``; ``release``
    returns it for reuse; ``discard`` drops it (fault, or the server
    announced close).  The pool never blocks: bursts beyond the idle
    supply just dial more.  After :meth:`close_all`, ``release`` closes
    the connection instead: a round trip still running on a caller's
    thread when its client closes must not park a socket nobody owns.
    """

    def __init__(self, dial):
        self._dial = dial
        self._free: list = []
        self._lock = threading.Lock()
        self._closed = False
        self.opened = 0

    def acquire(self):
        """-> (connection, reused) — ``reused`` drives stale-retry."""
        with self._lock:
            if self._free:
                return self._free.pop(), True
            self.opened += 1
        return self._dial(), False

    def release(self, conn) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(conn)
                return
        self.discard(conn)

    @staticmethod
    def discard(conn) -> None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            free, self._free = self._free, []
        for conn in free:
            self.discard(conn)


def _dial_socket(host: str, port: int, timeout: float) -> socket.socket:
    """One binary-frame connection (Nagle off: frames are small)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class RemoteSketchServer:
    """Estimation over the wire, behind the one `SketchService` surface.

    ``url`` is the front door's base address (``http://host:port``);
    ``timeout`` bounds each round trip (seconds);
    ``connection_workers`` sizes the thread pool that makes
    :meth:`submit` non-blocking (it does not limit the server's
    concurrency, only this client's in-flight round trips).
    ``transport`` is ``"auto"`` (negotiate binary via ``/v1/healthz``,
    fall back to JSON), ``"json"``, or ``"binary"`` (fail if the server
    doesn't offer it).

    The client is thread-safe: any number of caller threads may
    submit/estimate concurrently (each concurrent round trip uses its
    own pooled connection).
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        connection_workers: int = 4,
        transport: str = "auto",
    ):
        if not url.startswith(("http://", "https://")):
            raise RemoteServerError(
                f"url must start with http:// or https://, got {url!r}"
            )
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        if self.timeout <= 0:
            raise RemoteServerError(
                f"timeout must be positive, got {timeout!r}"
            )
        if connection_workers <= 0:
            raise RemoteServerError(
                f"connection_workers must be positive, got {connection_workers!r}"
            )
        if transport not in TRANSPORTS:
            raise RemoteServerError(
                f"unknown transport {transport!r}; "
                f"choose one of {', '.join(TRANSPORTS)}"
            )
        parts = urllib.parse.urlsplit(self.url)
        self._base_path = parts.path.rstrip("/")
        self._http_pool = _ConnectionPool(
            functools.partial(
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection,
                parts.hostname or "127.0.0.1",
                parts.port or (443 if parts.scheme == "https" else 80),
                timeout=self.timeout,
            )
        )
        self.transport = transport
        self._active: str | None = "json" if transport == "json" else None
        self._binary_pool: _ConnectionPool | None = None
        self._workers = int(connection_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._negotiate_lock = threading.Lock()
        self._plan_capable: bool | None = None
        self._closed = False
        #: Client-observed round-trip latency (seconds) per request.
        self.wire_latency = LatencySummary(window=8192)
        #: Server-reported handling time (seconds) per round trip.
        self.server_latency = LatencySummary(window=8192)

    # ------------------------------------------------------------------
    # JSON/HTTP transport (keep-alive)
    # ------------------------------------------------------------------
    def _http(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One JSON round trip on a pooled keep-alive connection.

        Structured 4xx/5xx bodies raise typed errors, transport faults
        raise RemoteServerError.  A *reused* connection that turns out
        stale (the server closed it while idle) is retried once on a
        fresh dial — estimates are idempotent, and a stale keep-alive
        connection is an artifact of pooling, not a server fault.
        """
        if self._closed:
            raise RemoteServerError("client is closed")
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        retried = False
        while True:
            conn, reused = self._acquire_http(method, path)
            try:
                conn.request(
                    method,
                    self._base_path + path,
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                raw = reply.read()
                status = reply.status
                keep = not reply.will_close
            except (
                http.client.RemoteDisconnected,
                BrokenPipeError,
                ConnectionResetError,
            ) as exc:
                self._http_pool.discard(conn)
                if reused and not retried:
                    retried = True
                    continue
                raise self._classify_transport_fault(exc, method, path) from exc
            except (OSError, http.client.HTTPException) as exc:
                self._http_pool.discard(conn)
                raise self._classify_transport_fault(exc, method, path) from exc
            break
        if keep:
            self._http_pool.release(conn)
        else:
            self._http_pool.discard(conn)
        if status >= 400:
            detail = ""
            try:
                detail = json.loads(raw).get("error") or ""
            except Exception:
                pass
            message = (
                f"{method} {path} failed with HTTP {status}"
                + (f": {detail}" if detail else "")
            )
            if status == 400:
                raise ProtocolError(message)
            raise RemoteHTTPError(message, status)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(
                f"{method} {path} answered non-JSON payload"
            ) from exc

    def _acquire_http(self, method: str, path: str):
        try:
            return self._http_pool.acquire()
        except OSError as exc:  # a fresh dial refused/unroutable
            raise self._classify_transport_fault(exc, method, path) from exc

    def _classify_transport_fault(
        self, exc: Exception, method: str, path: str
    ) -> RemoteServerError:
        """Map a socket-layer fault onto the typed taxonomy.

        A failover layer keys retry policy on the type: connection
        faults never executed (retry anywhere), timeouts may have
        (retry because estimates are idempotent), anything else stays a
        plain :class:`~repro.errors.RemoteServerError`.
        """
        if isinstance(exc, TimeoutError):  # socket.timeout is an alias
            return RemoteTimeoutError(
                f"{method} {path} to {self.url} timed out "
                f"after {self.timeout:g}s: {exc}"
            )
        if isinstance(exc, ConnectionError):  # refused/reset/aborted
            return RemoteConnectionError(
                f"cannot reach estimation service at {self.url}: {exc}"
            )
        return RemoteServerError(
            f"cannot reach estimation service at {self.url}: {exc}"
        )

    # ------------------------------------------------------------------
    # binary transport
    # ------------------------------------------------------------------
    @property
    def active_transport(self) -> str | None:
        """The negotiated estimate transport (``None`` = not yet known)."""
        return self._active

    @property
    def connections_opened(self) -> dict:
        """Lifetime TCP connects per transport (the keep-alive gate)."""
        return {
            "json": self._http_pool.opened,
            "binary": 0 if self._binary_pool is None else self._binary_pool.opened,
        }

    def negotiate_transport(self, health: dict | None = None) -> str:
        """Settle the estimate transport now; returns ``"json"``/``"binary"``.

        ``health`` is an already-fetched ``/v1/healthz`` payload (the
        gateway passes the one its prober just read); without it, one
        is fetched.  ``transport="auto"`` picks binary iff the server
        advertises it at this build's wire version.  An HTTP-level or
        malformed-payload answer settles on JSON (the server is alive —
        it just can't speak binary); a *transport* fault propagates and
        leaves negotiation open for the next call.
        """
        with self._negotiate_lock:
            if self._active is not None:
                return self._active
            try:
                if health is None:
                    health = self.healthz()
                # Piggyback feature detection on the health payload the
                # negotiation already holds (additive v1 field; absent
                # on pre-plan servers -> False).
                self._plan_capable = bool(health.get("plan"))
                offered = health.get("transports")
                binary = offered.get("binary") if isinstance(offered, dict) else None
                usable = (
                    isinstance(binary, dict)
                    and binary.get("wire_version") == wire.WIRE_VERSION
                    and isinstance(binary.get("port"), int)
                )
            except (RemoteHTTPError, ProtocolError):
                usable = False
                if self.transport == "binary":
                    raise
            if usable:
                host = binary.get("host")
                if not isinstance(host, str) or not host:
                    host = urllib.parse.urlsplit(self.url).hostname
                self._binary_pool = _ConnectionPool(
                    functools.partial(
                        _dial_socket, host, binary["port"], self.timeout
                    )
                )
                self._active = "binary"
            else:
                if self.transport == "binary":
                    raise RemoteServerError(
                        f"server at {self.url} does not offer the binary "
                        f"transport at wire version {wire.WIRE_VERSION}"
                    )
                self._active = "json"
            return self._active

    def _binary_call(self, kind: int, payload: bytes, what: str):
        """One frame round trip; returns ``(kind, payload)`` of the reply.

        Fault mapping mirrors the HTTP path: dial faults are
        connection errors (never executed), timeouts are timeouts (may
        have executed), a connection that dies *mid-frame* is a plain
        :class:`~repro.errors.RemoteServerError` (the request may have
        executed; no partial response is ever surfaced), and version
        skew / malformed frames are :class:`~repro.errors.ProtocolError`.
        """
        pool = self._binary_pool
        if pool is None:  # pragma: no cover - guarded by negotiation
            raise RemoteServerError("binary transport is not negotiated")
        retried = False
        while True:
            try:
                sock, reused = pool.acquire()
            except OSError as exc:
                raise self._classify_transport_fault(exc, "BINARY", what) from exc
            try:
                wire.write_frame(sock, kind, payload)
                frame = wire.read_frame(sock)
            except wire.TruncatedFrame as exc:
                pool.discard(sock)
                raise RemoteServerError(
                    f"binary {what} to {self.url}: connection lost mid-frame "
                    f"(the request may have executed): {exc}"
                ) from exc
            except ProtocolError:
                pool.discard(sock)
                raise
            except (OSError, TimeoutError) as exc:
                pool.discard(sock)
                if (
                    reused
                    and not retried
                    and isinstance(exc, ConnectionError)
                ):
                    retried = True  # stale keep-alive socket: one re-dial
                    continue
                raise self._classify_transport_fault(exc, "BINARY", what) from exc
            if frame is None:
                pool.discard(sock)
                if reused and not retried:
                    retried = True
                    continue
                raise RemoteConnectionError(
                    f"binary {what}: server at {self.url} closed the "
                    "connection before answering"
                )
            break
        reply_kind, reply_payload = frame
        if reply_kind == wire.KIND_ERROR:
            # The server answers transport-level failures with one
            # error frame and closes; never reuse this socket.
            pool.discard(sock)
            message, code = unpack(ERROR, reply_payload)
            if code == "protocol":
                raise ProtocolError(f"binary {what}: {message}")
            raise RemoteServerError(f"binary {what}: {message}")
        pool.release(sock)
        return reply_kind, reply_payload

    def _observe(self, server_ms, elapsed: float, n: int = 1) -> None:
        for _ in range(n):
            self.wire_latency.observe(elapsed / max(n, 1))
        if isinstance(server_ms, (int, float)):
            for _ in range(n):
                self.server_latency.observe(server_ms / 1000.0 / max(n, 1))

    # ------------------------------------------------------------------
    # the SketchService surface
    # ------------------------------------------------------------------
    def _round_trip(self, name: str, *request, n: int = 1):
        """One ``OPERATIONS`` row over the negotiated transport.

        ``request`` is the operation's request message in slots, ``n``
        the number of requests it carries (for the latency split);
        returns the operation's result.
        """
        op = _OPERATION[name]
        transport = self._active or self.negotiate_transport()
        t0 = time.perf_counter()
        if transport == "binary":
            reply_kind, payload = self._binary_call(
                op.request_kind, pack(op.request, *request), name
            )
            if reply_kind != op.reply_kind:
                raise ProtocolError(
                    f"binary {name} answered frame kind 0x{reply_kind:02x}"
                )
            result, server_ms = unpack(op.response, payload)
        else:
            body = self._http("POST", op.path, to_json(op.request, *request))
            result, server_ms = from_json(op.response, body)
        self._observe(server_ms, time.perf_counter() - t0, n)
        return result

    def estimate(
        self, request: Query | str, sketch: str | None = None
    ) -> EstimateResponse:
        """One blocking round trip (binary frame or ``POST /v1/estimate``)."""
        response = self._round_trip("estimate", request, sketch)
        return self._restore_request(response, request)

    def estimate_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """One round trip for a whole batch (binary batch frame or
        ``POST /v1/estimate_batch``)."""
        requests = list(requests)
        if not requests:
            return []
        responses = self._round_trip(
            "estimate_batch", requests, sketch, n=len(requests)
        )
        if len(responses) != len(requests):
            raise ProtocolError(
                f"batch answered {len(responses)} responses "
                f"for {len(requests)} requests"
            )
        return [
            self._restore_request(response, request)
            for response, request in zip(responses, requests)
        ]

    def submit(self, request: Query | str, sketch: str | None = None):
        """Non-blocking enqueue; the future resolves when the round
        trip completes (a structured response, never an exception, for
        request-level failures — transport faults do surface through
        the future as :class:`~repro.errors.RemoteServerError`)."""
        return self._ensure_pool().submit(self.estimate, request, sketch)

    def submit_many(
        self, requests: Sequence[Query | str], sketch: str | None = None
    ):
        """Amortized intake: one wire round trip for the whole batch,
        fanned out to one future per request."""
        requests = list(requests)
        futures: list[Future[EstimateResponse]] = [Future() for _ in requests]
        for future in futures:
            future.set_running_or_notify_cancel()
        if not requests:
            return futures

        def round_trip() -> None:
            try:
                responses = self.estimate_many(requests, sketch)
            except BaseException as exc:
                for future in futures:
                    future.set_exception(exc)
                return
            for future, response in zip(futures, responses):
                future.set_result(response)

        self._ensure_pool().submit(round_trip)
        return futures

    def serve(
        self, requests: Iterable[Query | str], sketch: str | None = None
    ) -> list[EstimateResponse]:
        """Submit a stream and block for all responses (submission order)."""
        return self.estimate_many(list(requests), sketch)

    def plan_capable(self, health: dict | None = None) -> bool:
        """Whether the server advertises the plan advisory capability.

        Read from ``/v1/healthz``'s additive ``plan`` field — absent on
        pre-plan servers.  Cached after the first look (negotiation
        caches it for free); ``health`` short-circuits the fetch when
        the caller already holds a health payload.
        """
        if health is not None:
            self._plan_capable = bool(health.get("plan"))
        elif self._plan_capable is None:
            try:
                self._plan_capable = bool(self.healthz().get("plan"))
            except (RemoteHTTPError, ProtocolError):
                self._plan_capable = False
        return self._plan_capable

    def plan(
        self, request: Query | str, sketch: str | None = None
    ) -> PlanResponse:
        """Join-order advice in **one** wire round trip.

        ``POST /v1/plan`` (or one ``KIND_PLAN`` frame on the binary
        transport): the server enumerates every connected subplan,
        answers them as a single engine batch, and runs the DP
        enumerator over the injected estimates
        (:mod:`repro.serve.plan`).  Request-level failures arrive as
        structured ``ok=False`` :class:`~repro.serve.plan.PlanResponse`
        values; a server without the capability (feature-detected via
        ``/v1/healthz``) raises :class:`~repro.errors.RemoteServerError`.
        """
        if not self.plan_capable():
            raise RemoteServerError(
                f"server at {self.url} does not advertise the plan "
                "advisory capability (/v1/plan)"
            )
        response = self._round_trip("plan", request, sketch)
        return self._restore_request(response, request)

    def stats_summary(self) -> dict:
        """The server engine's telemetry snapshot: ``GET /v1/stats``
        (byte-for-byte the shape in-process ``stats_summary()`` returns).
        Always JSON — the control surface does not negotiate."""
        return self._http("GET", "/v1/stats")

    def healthz(self) -> dict:
        """Liveness probe: ``GET /v1/healthz``.  Always JSON."""
        return self._http("GET", "/v1/healthz")

    def timings(self) -> dict:
        """Client-side latency split: wire round trip vs server time.

        ``wire`` percentiles are client-observed per-request latency
        (batch round trips amortized across their requests); ``server``
        percentiles are the service's self-reported handling time from
        the response envelopes.  The gap is marshalling + network.
        ``transport`` is the negotiated estimate transport and
        ``connections_opened`` the lifetime TCP dials per transport
        (the keep-alive regression gate reads it).
        """
        return {
            "wire": self.wire_latency.summary(),
            "server": self.server_latency.summary(),
            "transport": self._active,
            "connections_opened": self.connections_opened,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RemoteServerError("client is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="sketch-remote",
                )
            return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the thread pool and every pooled connection
        (idempotent).  In-flight ``submit`` round trips complete first;
        the remote server is not affected."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._http_pool.close_all()
        if self._binary_pool is not None:
            self._binary_pool.close_all()

    def __enter__(self) -> "RemoteSketchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        transport = self._active or self.transport
        return (
            f"RemoteSketchServer(url={self.url!r}, "
            f"transport={transport!r}, {state})"
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _restore_request(response, original: Query | str):
        """Hand back the caller's own request object.

        The wire round-trips requests losslessly (``parse_sql(to_sql(q))
        == q``), but handing back the *identical* object the caller
        passed matches the in-process server exactly — response.request
        is their request, not an equal reconstruction.
        """
        response.request = original
        return response


__all__ = ["RemoteSketchServer", "TRANSPORTS"]
