"""RemoteSketchServer transport-fault taxonomy, via fault-injecting
stub servers.

The gateway's failover logic retries only *safe* fault classes, so the
SDK must distinguish them: connection loss (never executed — retry
anywhere), timeout (may have executed — retry because estimates are
idempotent), HTTP 5xx (the service answered, badly), HTTP 4xx /
protocol (wrong everywhere — never retry).  Before this taxonomy every
``OSError`` collapsed into one ``RemoteServerError`` branch.
"""

import functools
import http.server
import json
import socket
import threading

import pytest

from repro.errors import (
    ProtocolError,
    RemoteConnectionError,
    RemoteHTTPError,
    RemoteServerError,
    RemoteTimeoutError,
)
from repro.serve import RemoteSketchServer, wire
from repro.serve.client import _ConnectionPool, _dial_socket

SQL = "SELECT COUNT(*) FROM title t;"


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class _StatusHandler(http.server.BaseHTTPRequestHandler):
    """Answers every request with one configured HTTP status."""

    status = 500

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        body = json.dumps(
            {"protocol_version": 1, "ok": False,
             "error": "injected fault", "code": "internal"}
        ).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _answer
    do_POST = _answer

    def log_message(self, *args):  # noqa: A002 - stdlib signature
        pass


@pytest.fixture()
def status_server():
    """Factory: an HTTP stub that answers everything with one status."""
    servers = []

    def start(status: int) -> str:
        handler = type("_Bound", (_StatusHandler,), {"status": status})
        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        httpd.daemon_threads = True
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        servers.append((httpd, thread))
        return f"http://127.0.0.1:{httpd.server_address[1]}"

    yield start
    for httpd, thread in servers:
        # Wake serve_forever's 0.5 s poll at once, as SketchHTTPServer
        # .close() does, so shutdown() does not wait out the interval.
        try:
            httpd.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        httpd.shutdown()
        httpd.server_close()
        thread.join(5.0)


@pytest.fixture()
def black_hole():
    """A socket that accepts connections and never answers (timeouts)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    stop = threading.Event()

    def accept_loop():
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except (socket.timeout, OSError):
                continue
            accepted.append(conn)  # hold it open, read nothing

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    stop.set()
    thread.join(5.0)
    for conn in accepted:
        conn.close()
    listener.close()


class TestTaxonomy:
    def test_subclass_hierarchy(self):
        # One catch-all still works at API boundaries.
        assert issubclass(RemoteTimeoutError, RemoteServerError)
        assert issubclass(RemoteConnectionError, RemoteServerError)
        assert issubclass(RemoteHTTPError, RemoteServerError)

    def test_connection_refused(self):
        url = f"http://127.0.0.1:{_free_port()}"
        with RemoteSketchServer(url, timeout=2.0) as client:
            with pytest.raises(RemoteConnectionError, match="cannot reach"):
                client.estimate(SQL)

    def test_timeout(self, black_hole):
        with RemoteSketchServer(black_hole, timeout=0.3) as client:
            with pytest.raises(RemoteTimeoutError, match="timed out"):
                client.estimate(SQL)

    @pytest.mark.parametrize("status", [500, 503])
    def test_http_5xx_carries_status(self, status_server, status):
        with RemoteSketchServer(status_server(status), timeout=5.0) as client:
            with pytest.raises(RemoteHTTPError) as excinfo:
                client.estimate(SQL)
        assert excinfo.value.status == status
        assert "injected fault" in str(excinfo.value)

    def test_http_400_is_protocol_error(self, status_server):
        # A 400 means *this* payload is wrong — retrying it on a
        # replica cannot help, so it is not a RemoteServerError at all.
        with RemoteSketchServer(status_server(400), timeout=5.0) as client:
            with pytest.raises(ProtocolError):
                client.estimate(SQL)

    def test_http_404_is_retryable_server_error_with_status(self, status_server):
        with RemoteSketchServer(status_server(404), timeout=5.0) as client:
            with pytest.raises(RemoteHTTPError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 404

    def test_connection_reset_mid_response(self):
        # A server that accepts then slams the connection: the request
        # never produced a response — classified as connection loss.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"

        def slam():
            conn, _ = listener.accept()
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            conn.close()  # RST

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        try:
            with RemoteSketchServer(url, timeout=5.0) as client:
                with pytest.raises(RemoteServerError):
                    client.estimate(SQL)
        finally:
            thread.join(5.0)
            listener.close()


class _FakeConnection:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestConnectionPool:
    def test_release_hands_the_connection_back_for_reuse(self):
        pool = _ConnectionPool(_FakeConnection)
        conn, reused = pool.acquire()
        assert not reused
        pool.release(conn)
        again, reused = pool.acquire()
        assert again is conn and reused
        assert pool.opened == 1

    def test_close_all_closes_idle_connections(self):
        pool = _ConnectionPool(_FakeConnection)
        first, _ = pool.acquire()
        second, _ = pool.acquire()
        pool.release(first)
        pool.close_all()
        assert first.closed and not second.closed
        pool.release(second)  # a round trip that outlived close_all
        assert second.closed
        assert pool.opened == 2


class TestCloseDuringRoundTrip:
    """``close()`` waits only for its own submit pool; a round trip on a
    caller's thread may finish after it and hand its connection back.
    That connection must be closed, not parked in the emptied pool."""

    @pytest.mark.parametrize("transport", ["json", "binary"])
    def test_late_release_closes_the_connection(self, transport):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        received, answer = threading.Event(), threading.Event()
        seen = {}

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(2.0)
                if transport == "json":
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += conn.recv(4096)
                else:
                    wire.read_frame(conn)
                received.set()
                answer.wait(5.0)
                if transport == "json":
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                        b"\r\nContent-Length: 2\r\n\r\n{}"
                    )
                else:
                    wire.write_frame(conn, wire.KIND_RESPONSE, b"")
                try:
                    seen["eof"] = conn.recv(1) == b""
                except TimeoutError:  # the client kept the socket open
                    seen["eof"] = False

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        client = RemoteSketchServer(
            f"http://127.0.0.1:{port}", timeout=5.0, transport=transport
        )
        if transport == "binary":
            client._binary_pool = _ConnectionPool(
                functools.partial(_dial_socket, "127.0.0.1", port, 5.0)
            )
            client._active = "binary"

            def round_trip():
                client._binary_call(wire.KIND_ESTIMATE, b"", "estimate")
        else:
            round_trip = client.healthz
        errors = []

        def call():
            try:
                round_trip()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            assert received.wait(5.0)
            client.close()
            answer.set()
            caller.join(5.0)
            server.join(5.0)
        finally:
            answer.set()
            listener.close()
        assert not caller.is_alive() and not server.is_alive()
        assert errors == []
        assert seen["eof"]
        opened = {"json": 0, "binary": 0}
        opened[transport] = 1
        assert client.connections_opened == opened
