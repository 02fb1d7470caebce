"""Binary wire transport: length-prefixed frames for protocol v1.

The JSON/HTTP front door (:mod:`repro.serve.http`) is the compatibility
transport; this module is the fast one.  Measured on the serving bench,
a JSON round trip costs ~1.2ms/request in framing alone — HTTP request
lines, header parsing, and connection churn — versus ~25µs for the same
estimate in-process.  The binary transport removes all of it: one
persistent TCP connection per client slot, each message a single
length-prefixed frame whose payload is a compact struct encoding of the
*same* protocol v1 envelope (:mod:`repro.serve.protocol`), and exact
round-trip identity preserved — ``decode_response(encode_response(r))``
reconstructs precisely the :class:`~repro.serve.engine.EstimateResponse`
the engine produced, field for field, for every outcome class.

Frame layout (all integers big-endian)::

    +------+---------+------+-----------+----------------+
    | "SB" | version | kind | length u32| payload bytes  |
    +------+---------+------+-----------+----------------+
      2B      1B       1B       4B         `length` B

``version`` is :data:`WIRE_VERSION` and moves with
:data:`repro.serve.protocol.PROTOCOL_VERSION`: a receiver rejects
frames from any other version (or a wrong magic) with
:class:`~repro.errors.ProtocolError` before touching the payload —
explicit version skew beats silent misparses.  ``length`` is bounded by
:data:`MAX_FRAME_BYTES`; an oversized prefix is refused without reading
the payload.  A connection that dies mid-frame raises
:class:`TruncatedFrame` (a :class:`~repro.errors.ProtocolError`), which
the client SDK maps onto the :class:`~repro.errors.RemoteServerError`
taxonomy — no hangs, no partially-decoded responses.

Payloads are the binary encoding of the messages declared in
:mod:`repro.serve.schema` (strings as u32-length-prefixed UTF-8, floats
as IEEE f64 — lossless, so parity with the in-process value is exact —
the closed ``code`` set as one enum byte; slot and flag-bit tables in
``docs/serving.md``); each ``encode_*`` / ``decode_*`` below is one of
those messages bound to the binary codec.  The listener serves the
rows of :data:`~repro.serve.schema.OPERATIONS`, looked up by frame kind.
Negotiation: a front door running a :class:`BinaryFrameServer`
advertises it under ``transports.binary.port`` in ``GET /v1/healthz``;
clients that see the capability switch ``estimate``/``estimate_batch``
to frames and keep JSON for the control surface (stats/healthz) and as
the fallback when the capability is absent.
"""

from __future__ import annotations

import socket
import struct
import threading

from ..errors import ProtocolError
from ..db.query import Query
from .engine import EstimateResponse
from .plan import PlanResponse
from . import schema
from .schema import (
    KIND_BATCH,
    KIND_BATCH_RESPONSE,
    KIND_ERROR,
    KIND_ESTIMATE,
    KIND_PLAN,
    KIND_PLAN_RESPONSE,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
)

#: Two-byte frame magic ("Sketch Binary").
MAGIC = b"SB"

#: Binary framing version; moves in lockstep with the JSON
#: ``protocol_version`` (both serialize the same v1 messages).
WIRE_VERSION = 1

_HEADER = struct.Struct("!2sBBI")

_BY_KIND = {op.request_kind: op for op in schema.OPERATIONS}


class TruncatedFrame(ProtocolError):
    """The peer closed the connection in the middle of a frame.

    A :class:`~repro.errors.ProtocolError` subclass so generic handlers
    keep working, but distinct so the client SDK can map mid-frame
    connection loss onto the :class:`~repro.errors.RemoteServerError`
    taxonomy instead of blaming the payload."""


# ----------------------------------------------------------------------
# payloads: the schema's messages bound to the binary codec
# ----------------------------------------------------------------------
def encode_estimate_request(
    request: Query | str, sketch: str | None = None
) -> bytes:
    return schema.pack(schema.REQUEST, request, sketch)


def decode_estimate_request(payload: bytes) -> tuple[str, str | None]:
    return schema.unpack(schema.REQUEST, payload)


#: ``KIND_PLAN`` carries the same payload as ``KIND_ESTIMATE``.
encode_plan_request = encode_estimate_request
decode_plan_request = decode_estimate_request


def encode_batch_request(requests, sketch: str | None = None) -> bytes:
    return schema.pack(schema.BATCH_REQUEST, requests, sketch)


def decode_batch_request(payload: bytes) -> tuple[list[str], str | None]:
    return schema.unpack(schema.BATCH_REQUEST, payload)


def encode_response(
    response: EstimateResponse, server_ms: float | None = None
) -> bytes:
    return schema.pack(schema.RESPONSE, response, server_ms)


def decode_response(payload: bytes) -> tuple[EstimateResponse, float | None]:
    return schema.unpack(schema.RESPONSE, payload)


def encode_batch_response(responses, server_ms: float | None = None) -> bytes:
    return schema.pack(schema.BATCH_RESPONSE, responses, server_ms)


def decode_batch_response(
    payload: bytes,
) -> tuple[list[EstimateResponse], float | None]:
    return schema.unpack(schema.BATCH_RESPONSE, payload)


def encode_plan_response(
    response: PlanResponse, server_ms: float | None = None
) -> bytes:
    return schema.pack(schema.PLAN_RESPONSE, response, server_ms)


def decode_plan_response(payload: bytes) -> tuple[PlanResponse, float | None]:
    return schema.unpack(schema.PLAN_RESPONSE, payload)


def encode_error(message: str, code: str = "protocol") -> bytes:
    return schema.pack(schema.ERROR, message, code)


def decode_error(payload: bytes) -> tuple[str, str]:
    return schema.unpack(schema.ERROR, payload)


# ----------------------------------------------------------------------
# frame I/O
# ----------------------------------------------------------------------
def write_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    """Send one frame (header + payload) atomically via ``sendall``."""
    sock.sendall(_HEADER.pack(MAGIC, WIRE_VERSION, kind, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TruncatedFrame(
                f"connection closed mid-frame ({what}: "
                f"{n - remaining}/{n} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`TruncatedFrame` when the connection dies inside a
    frame, and plain :class:`~repro.errors.ProtocolError` for a wrong
    magic, a version-skewed header, or an oversized length prefix (the
    payload of an oversized frame is never read).
    """
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exact(sock, _HEADER.size - 1, "frame header")
    magic, version, kind, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"not a binary wire frame (bad magic {magic!r})"
        )
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"binary frame speaks wire version {version}; "
            f"this build speaks {WIRE_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    payload = _recv_exact(sock, length, "frame payload") if length else b""
    return kind, payload


# ----------------------------------------------------------------------
# the server side
# ----------------------------------------------------------------------
class BinaryFrameServer:
    """The binary listener a front door runs next to its HTTP socket.

    Accepts persistent connections; each runs a read-frame ->
    serve -> write-frame loop on its own daemon thread, marshalling
    onto the same ``SketchService`` the HTTP handler uses — so binary
    and JSON clients batch, dedup, and cache-hit together in one
    engine, and request-level failures stay structured *values* in the
    response envelope.  Transport-level failures answer with one
    :data:`KIND_ERROR` frame and close the connection (mirroring the
    front door's 4xx-then-close discipline); a client that dies
    mid-frame just costs its connection.

    Construction binds the socket (``port=0`` picks an ephemeral port);
    :meth:`start` launches the acceptor.  :meth:`close` stops accepting
    and shuts every live connection — it does **not** close the shared
    service (the owning front door does).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._listener = socket.create_server(
            (host, port), backlog=64, reuse_port=False
        )
        self._thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = False
        #: Lifetime accepted-connection count (telemetry/tests).
        self.connections_accepted = 0

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "BinaryFrameServer":
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._accept_loop,
                name="sketch-serve-binary",
                daemon=True,
            )
            self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
                self.connections_accepted += 1
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="sketch-serve-binary-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    frame = read_frame(conn)
                except TruncatedFrame:
                    return  # client died mid-frame; nothing to answer
                except ProtocolError as exc:
                    # Bad magic / version skew / oversized prefix: the
                    # stream position is unknowable, so answer once and
                    # close (the HTTP 400-then-close discipline).
                    self._answer_error(conn, str(exc), "protocol")
                    return
                if frame is None:
                    return  # clean disconnect between frames
                kind, payload = frame
                try:
                    op = _BY_KIND.get(kind)
                    if op is None:
                        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")
                    request = schema.unpack(op.request, payload)
                    answer = op.answer(self.service, request)
                    write_frame(
                        conn, op.reply_kind, schema.pack(op.response, *answer)
                    )
                except ProtocolError as exc:
                    self._answer_error(conn, str(exc), "protocol")
                    return
                except Exception as exc:
                    # submit() raising (closed service) or a marshalling
                    # bug: answer something structured, then close.
                    self._answer_error(
                        conn, f"service unavailable: {exc}", "internal"
                    )
                    return
        except OSError:
            pass  # connection torn down under us
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _answer_error(conn: socket.socket, message: str, code: str) -> None:
        try:
            write_frame(conn, KIND_ERROR, encode_error(message, code))
            # Closing with unread bytes in the receive buffer makes the
            # kernel send RST, which can destroy the error frame before
            # the peer reads it.  Signal end-of-answers, then drain
            # (briefly, boundedly) whatever garbage the peer already
            # sent so the close is a clean FIN.
            conn.shutdown(socket.SHUT_WR)
            conn.settimeout(0.5)
            drained = 0
            while drained < (1 << 20):
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                drained += len(chunk)
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting and quiesce live connections (idempotent).

        Only the *read* side of each connection is shut down: idle
        clients see a clean EOF immediately, while a connection whose
        request is still in the engine keeps its write side open — the
        front door drains the engine after this returns, and the
        in-flight answer is still delivered (the same
        answer-everything-accepted close discipline the HTTP listener
        follows).  Connection threads tear their sockets down as they
        exit.
        """
        if self._closed:
            return
        self._closed = True
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the acceptor leaves now rather
        # than at the join timeout below.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(2.0)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"BinaryFrameServer(port={self.port}, {state})"


__all__ = [
    "BinaryFrameServer",
    "KIND_BATCH",
    "KIND_BATCH_RESPONSE",
    "KIND_ERROR",
    "KIND_ESTIMATE",
    "KIND_PLAN",
    "KIND_PLAN_RESPONSE",
    "KIND_RESPONSE",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "TruncatedFrame",
    "WIRE_VERSION",
    "decode_batch_request",
    "decode_batch_response",
    "decode_error",
    "decode_estimate_request",
    "decode_plan_request",
    "decode_plan_response",
    "decode_response",
    "encode_batch_request",
    "encode_batch_response",
    "encode_error",
    "encode_estimate_request",
    "encode_plan_request",
    "encode_plan_response",
    "encode_response",
    "read_frame",
    "write_frame",
]
