"""RemoteSketchServer transport-fault taxonomy, via fault-injecting
stub servers.

The gateway's failover logic retries only *safe* fault classes, so the
SDK must distinguish them: connection loss (never executed — retry
anywhere), timeout (may have executed — retry because estimates are
idempotent), HTTP 5xx (the service answered, badly), HTTP 4xx /
protocol (wrong everywhere — never retry).  Before this taxonomy every
``OSError`` collapsed into one ``RemoteServerError`` branch.
"""

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
from repro.serve import RemoteSketchServer

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
