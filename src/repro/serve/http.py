"""The stdlib-only HTTP front door over the estimation engine.

:class:`SketchHTTPServer` binds the versioned wire protocol
(:mod:`repro.serve.protocol`) to a ``ThreadingHTTPServer``.  The
ROADMAP promised that "a server binding is mostly request/response
marshalling" once the engine was transport-agnostic — this module is
that binding, and nothing more: every request is marshalled onto an
in-process :class:`~repro.serve.server.SketchServer` (engine +
background flush loop, started with the front door) and the response
marshalled back.

Because ``ThreadingHTTPServer`` handles each connection on its own
thread and the engine's ``submit`` is thread-safe, **concurrent single
estimates batch together**: their requests land in the same per-sketch
buffers, flush as shared micro-batches under the engine's triggers,
dedup onto shared computations, and hit the same result cache.  Batch
and plan calls (``estimate_batch``, ``plan``) dedup and hit the cache
the same way but answer at once on their connection thread, taking
along whatever is buffered: their batch is complete, so a timer could
only delay it.  The
network front door therefore inherits every serving property of the
in-process server — admission control, deadlines, executors,
telemetry — with zero engine changes.

Endpoints (all JSON; the three ``POST`` ones are the rows of
:data:`repro.serve.schema.OPERATIONS`, which the handler looks up by
path — their messages are declared there):

=====================  ====================================================
``POST /v1/estimate``        one request envelope -> one response envelope
``POST /v1/estimate_batch``  batch envelope -> batch response envelope
``POST /v1/plan``            one SQL query -> join-order advice (every
                             connected subplan estimated in one engine
                             batch; :mod:`repro.serve.plan`)
``GET /v1/stats``            the engine's ``stats_summary()`` snapshot,
                             byte-for-byte the shape local callers get
``GET /v1/healthz``          liveness + protocol version + sketch names
=====================  ====================================================

Transport-level failures (malformed JSON, bad envelope, unknown path,
closed server) answer with 4xx/5xx and a minimal
:data:`~repro.serve.schema.ERROR` body; *request-level*
failures (parse/route/vocab/shed/deadline) are **HTTP 200** with
``ok=false`` and a structured ``code`` — the wire mirrors the
in-process contract, where a response is always a value, never an
exception.

Typical use::

    with SketchHTTPServer(manager, host="0.0.0.0", port=8080) as server:
        print("serving on", server.url)
        server.join()            # until another thread close()s it

or from the CLI: ``repro serve sketch.bin --http --port 8080``.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ProtocolError, SketchError
from ..demo.manager import SketchManager
from .engine import ServeConfig
from .feature_cache import FeatureCache
from .schema import ERROR, OPERATIONS, PROTOCOL_VERSION, from_json, to_json
from .server import SketchServer
from .wire import WIRE_VERSION, BinaryFrameServer

#: Largest accepted request body, in bytes.  A batch of several
#: thousand SQL strings fits comfortably; a runaway client does not.
MAX_BODY_BYTES = 16 * 1024 * 1024

_BY_PATH = {op.path: op for op in OPERATIONS}


def healthz_payload(service, transports: dict | None = None) -> dict:
    """The ``GET /v1/healthz`` body for any served ``SketchService``.

    ``sketches`` (sorted names) and ``pending`` are the liveness core;
    ``tables`` maps each sketch to the tables it covers — the additive
    v1 extension a :class:`~repro.serve.gateway.SketchGateway` reads to
    route without holding the models.  Services that are not
    manager-backed (the gateway itself) provide ``describe_sketches()``
    returning the same name -> tables map.

    Two further additive extensions serve the sketch lifecycle
    (:mod:`repro.serve.lifecycle`): ``versions`` maps each sketch to
    ``{"token", "registry_version"}`` (the fleet judges version
    consistency on ``registry_version`` — tokens are process-local),
    and ``lifecycle`` carries the attached
    :class:`~repro.serve.lifecycle.LifecycleManager`'s :meth:`state`
    (``None`` when no manager is attached).  Non-engine services
    provide the matching ``describe_versions()`` hook.

    ``transports`` is the capability field clients negotiate on: a map
    from transport name to its parameters.  ``"json"`` (this HTTP
    surface, always present) and — when the front door runs a
    :class:`~repro.serve.wire.BinaryFrameServer` —
    ``"binary": {"host", "port", "wire_version"}``.  Clients that
    don't read the field keep speaking JSON; nothing is ever removed.

    ``plan`` advertises the plan advisory capability
    (``POST /v1/plan``, :mod:`repro.serve.plan`): ``true`` when the
    served service answers :meth:`plan`.  Clients and gateways
    feature-detect on it instead of probing with a request.
    """
    describe = getattr(service, "describe_sketches", None)
    if describe is not None:
        tables = {name: sorted(t) for name, t in describe().items()}
    else:
        manager = service.manager
        tables = {}
        for name in manager.list_sketches():
            try:
                tables[name] = sorted(manager.get_sketch(name).tables)
            except SketchError:
                continue  # dropped between list and get; not served

    engine = getattr(service, "engine", None)
    describe_versions = getattr(service, "describe_versions", None)
    if describe_versions is None and engine is not None:
        describe_versions = engine.describe_versions
    versions = {} if describe_versions is None else describe_versions()
    lifecycle = getattr(engine, "lifecycle", None)

    return {
        "status": "ok",
        "protocol_version": PROTOCOL_VERSION,
        "sketches": sorted(tables),
        "tables": tables,
        "pending": service.pending,
        "versions": versions,
        "lifecycle": None if lifecycle is None else lifecycle.state(),
        "transports": dict(transports) if transports else {"json": {}},
        "plan": callable(getattr(service, "plan", None)),
    }


class _Handler(BaseHTTPRequestHandler):
    """One request/response marshalling pass; no serving logic here."""

    # Set by SketchHTTPServer on the server class it instantiates.  Any
    # SketchService works; the classic single-node front door binds an
    # started SketchServer, a gateway node binds a SketchGateway.
    service: "SketchServer"
    quiet: bool = True
    # The owning front door's transport capabilities, advertised in
    # /v1/healthz for client/gateway negotiation.
    transports: dict = {"json": {}}

    # HTTP/1.1 keep-alive for clients that reuse connections (curl with
    # several URLs, requests.Session, and the SDK's pool of
    # http.client connections).
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: a response is one write
    # (see _send_json), and nothing of it may wait for the peer's ACK.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Closing without announcing it would leave an HTTP/1.1
            # client waiting on a connection it believes is reusable.
            self.send_header("Connection", "close")
        # end_headers() would write the header block on its own and the
        # body after it: two segments, the second held by Nagle until
        # the client's delayed ACK (~40 ms a response).  Queue the blank
        # line and the body behind the headers instead, so the whole
        # response leaves in one write.  (An HTTP/0.9 request gets no
        # header block, only the body.)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_error_json(self, status: int, message: str, code: str) -> None:
        # Error paths may leave an unread request body on the socket (an
        # unknown POST path, an oversized body we refused to read);
        # answering keep-alive with those bytes pending would desync the
        # connection and misparse the client's *next* request.  Closing
        # is always safe, and errors are rare enough not to optimize.
        self.close_connection = True
        self._send_json(status, to_json(ERROR, message, code))

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ProtocolError("Content-Length is not an integer") from None
        if length <= 0:
            raise ProtocolError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    # -- endpoints ------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            op = _BY_PATH.get(self.path)
            if op is None:
                self._send_error_json(
                    404, f"unknown endpoint {self.path!r}", "not_found"
                )
                return
            request = from_json(op.request, self._read_json())
            answer = op.answer(self.service, request)
            self._send_json(200, to_json(op.response, *answer))
        except ProtocolError as exc:
            self._send_error_json(400, str(exc), "protocol")
        except Exception as exc:  # pragma: no cover - defensive
            # submit() raising (closed service) or a marshalling bug:
            # the transport must answer something structured.
            self._send_error_json(503, f"service unavailable: {exc}", "internal")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/v1/stats":
                # Exactly stats_summary()'s shape — operators and the
                # SDK read the same JSON local callers get.
                self._send_json(200, self.service.stats_summary())
            elif self.path == "/v1/healthz":
                self._send_json(
                    200, healthz_payload(self.service, self.transports)
                )
            else:
                self._send_error_json(
                    404, f"unknown endpoint {self.path!r}", "not_found"
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(503, f"service unavailable: {exc}", "internal")


class SketchHTTPServer:
    """The network front door: a threaded HTTP server over the engine.

    Construction binds the socket (``port=0`` picks an ephemeral port —
    read :attr:`url` / :attr:`port` for the bound address) but does not
    serve; :meth:`start` (or entering the context manager) launches the
    acceptor thread.  All serving behavior is the wrapped
    :class:`~repro.serve.server.SketchServer`'s (started with the front
    door), configured by the same
    :class:`~repro.serve.engine.ServeConfig` as in-process serving —
    executors, admission control, and deadlines apply to HTTP traffic
    unchanged.

    :meth:`close` is idempotent and drains: the HTTP acceptor stops
    first (no new requests), then the inner service drains every
    accepted request, so no in-flight HTTP client is ever dropped
    without a response.

    ``binary=True`` (the default) additionally runs a
    :class:`~repro.serve.wire.BinaryFrameServer` on an ephemeral port
    of the same host — the zero-copy estimate path — and advertises it
    under ``transports.binary`` in ``/v1/healthz`` so SDK clients and
    gateways negotiate onto it.  JSON remains the control surface
    (stats/healthz) and the fallback transport either way.
    """

    def __init__(
        self,
        manager: SketchManager | None = None,
        config: ServeConfig | None = None,
        *,
        service=None,
        host: str = "127.0.0.1",
        port: int = 8080,
        feature_cache: FeatureCache | None = None,
        quiet: bool = True,
        binary: bool = True,
    ):
        # Two construction modes: a manager (the front door builds and
        # owns a SketchServer over it — the classic single-node
        # path) or a ready-made ``service`` (any SketchService, e.g. a
        # SketchGateway — the front door only marshals for it).  Either
        # way the service is closed with the server.
        if (manager is None) == (service is None):
            raise SketchError(
                "pass exactly one of a SketchManager or service="
            )
        if service is None:
            self.service = SketchServer(manager, config, feature_cache)
        else:
            if config is not None or feature_cache is not None:
                raise SketchError(
                    "config/feature_cache belong to the wrapped service "
                    "when service= is given"
                )
            self.service = service

        self._binary: BinaryFrameServer | None = None
        transports: dict = {"json": {}}
        if binary:
            self._binary = BinaryFrameServer(self.service, host=host, port=0)
            transports["binary"] = {
                "host": self._binary.host,
                "port": self._binary.port,
                "wire_version": WIRE_VERSION,
            }

        # A per-instance handler subclass so several servers (tests,
        # shards) never share service state through class attributes.
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {
                "service": self.service,
                "quiet": quiet,
                "transports": transports,
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- address --------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def binary_port(self) -> int | None:
        """The binary transport's port (``None`` when ``binary=False``)."""
        return None if self._binary is None else self._binary.port

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SketchHTTPServer":
        """Start the acceptor thread and the flush loop (idempotent)."""
        if self._closed:
            raise SketchError("server is closed")
        start = getattr(self.service, "start", None)
        if start is not None:  # gateways and remote clients have no loop
            start()
        if self._binary is not None:
            self._binary.start()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="sketch-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        """Block until the acceptor thread exits (a ``close()`` from
        another thread, typically a signal handler)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def close(self) -> None:
        """Stop accepting, drain the engine, release everything.

        Safe in every lifecycle state: ``shutdown()`` blocks on an event
        only ``serve_forever()`` sets, so it must be skipped when the
        acceptor thread never started (a constructed-but-unstarted
        server would deadlock here forever).
        """
        if self._closed:
            return
        self._closed = True
        if self._binary is not None:
            self._binary.close()
        if self._thread is not None:
            # shutdown() only raises a flag serve_forever() reads between
            # 0.5 s polls.  Shutting the listening socket down wakes the
            # poll at once (the accept() it triggers fails, which the
            # loop ignores), so close() does not wait out the interval.
            try:
                self._httpd.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._httpd.shutdown()
            self._thread.join(5.0)
        self._httpd.server_close()
        self.service.close()

    def stats_summary(self) -> dict:
        return self.service.stats_summary()

    def __enter__(self) -> "SketchHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"SketchHTTPServer(url={self.url!r}, {state})"


__all__ = ["MAX_BODY_BYTES", "SketchHTTPServer", "healthz_payload"]
