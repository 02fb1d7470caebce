"""The HTTP front door + client SDK: one estimation API over the wire.

The acceptance contract: a ``RemoteSketchServer`` pointed at a
``SketchHTTPServer`` returns estimates identical (<= 1e-12 relative)
to the in-process facade on the same query stream, failures arrive
with the same structured codes, and all three implementations satisfy
the ``SketchService`` protocol.
"""

import http.client
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.demo import SketchManager
from repro.errors import ProtocolError, RemoteServerError
from repro.serve import (
    CODE_PARSE,
    CODE_ROUTE,
    CODE_VOCAB,
    PROTOCOL_VERSION,
    RemoteSketchServer,
    ServeConfig,
    SketchHTTPServer,
    SketchServer,
    SketchService,
)
from repro.workload import Predicate, Query, TableRef, spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

PARITY_RTOL = 1e-12
RESULT_TIMEOUT = 30


@pytest.fixture(scope="module")
def served(imdb_small, trained_sketch):
    """One live front door + SDK client for the whole module."""
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    with SketchHTTPServer(manager, ServeConfig(), port=0) as server:
        with RemoteSketchServer(server.url) as client:
            yield manager, server, client
    sketch.clear_cache()


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=97)
    return gen.draw_many(30)


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as reply:
        return json.loads(reply.read())


def _post_json(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestServiceProtocol:
    def test_all_three_implementations_conform(self, served, imdb_small):
        manager, _server, client = served
        assert isinstance(client, SketchService)
        sync_server = SketchServer(manager)
        started = SketchServer(manager).start()
        assert isinstance(sync_server, SketchService)
        assert isinstance(started, SketchService)
        sync_server.close()
        started.close()

    def test_a_random_object_does_not_conform(self):
        assert not isinstance(object(), SketchService)


class TestRemoteParity:
    def test_stream_parity_with_in_process_facade(self, served, workload, trained_sketch):
        manager, _server, client = served
        sketch, _ = trained_sketch
        remote = client.serve(workload)
        assert all(r.ok for r in remote)
        # fresh cache state for the in-process reference
        sketch.clear_cache()
        with SketchServer(manager) as local_server:
            local = local_server.serve(workload)
        assert all(r.ok for r in local)
        remote_estimates = np.array([r.estimate for r in remote])
        local_estimates = np.array([r.estimate for r in local])
        np.testing.assert_allclose(
            remote_estimates, local_estimates, rtol=PARITY_RTOL, atol=0.0
        )
        assert [r.sketch for r in remote] == [r.sketch for r in local]

    def test_estimate_single_round_trip(self, served, workload):
        _manager, _server, client = served
        response = client.estimate(workload[0])
        assert response.ok and response.estimate > 0
        assert response.request is workload[0]  # caller's own object
        assert response.query == workload[0]

    def test_submit_returns_live_future(self, served, workload):
        _manager, _server, client = served
        future = client.submit(workload[1])
        response = future.result(RESULT_TIMEOUT)
        assert response.ok and response.estimate > 0

    def test_submit_many_is_one_round_trip(self, served, workload):
        _manager, server, client = served
        before = server.stats_summary()["requests"]
        futures = client.submit_many(workload[:6])
        responses = [f.result(RESULT_TIMEOUT) for f in futures]
        assert all(r.ok for r in responses)
        after = server.stats_summary()["requests"]
        assert after - before == 6  # engine saw the batch, not 6 trips

    def test_sql_strings_accepted(self, served):
        _manager, _server, client = served
        response = client.estimate(
            "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;"
        )
        assert response.ok
        assert isinstance(response.query, Query)


class TestStructuredErrorsOverTheWire:
    def test_parse_error_code(self, served):
        _manager, _server, client = served
        response = client.estimate("SELECT nonsense;")
        assert not response.ok and response.code == CODE_PARSE

    def test_route_error_code(self, served):
        _manager, _server, client = served
        response = client.estimate("SELECT COUNT(*) FROM keyword k;")
        assert not response.ok and response.code == CODE_ROUTE

    def test_unknown_pinned_sketch_is_route(self, served, workload):
        _manager, _server, client = served
        response = client.estimate(workload[0], sketch="ghost")
        assert not response.ok and response.code == CODE_ROUTE
        assert "ghost" in response.error

    def test_vocab_error_code(self, served):
        _manager, _server, client = served
        bad = Query(
            tables=(TableRef("title", "t"),),
            predicates=(Predicate("t", "episode_nr", "=", 1),),
        )
        response = client.estimate(bad)
        assert not response.ok and response.code == CODE_VOCAB

    def test_error_isolation_in_batches(self, served, workload):
        _manager, _server, client = served
        responses = client.serve(
            [workload[0], "SELECT nonsense;", workload[1]]
        )
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok and responses[1].code == CODE_PARSE


class TestEndpoints:
    def test_stats_shape_matches_stats_summary(self, served):
        _manager, server, client = served
        wire = client.stats_summary()
        local = server.stats_summary()
        assert wire.keys() == local.keys()
        assert wire["executor"] == local["executor"]
        assert wire["flushes"].keys() == local["flushes"].keys()

    def test_healthz(self, served, trained_sketch):
        _manager, server, client = served
        sketch, _ = trained_sketch
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION
        assert sketch.name in health["sketches"]

    def test_raw_estimate_envelope(self, served, workload):
        _manager, server, _client = served
        status, payload = _post_json(
            server.url + "/v1/estimate",
            {"protocol_version": PROTOCOL_VERSION,
             "sql": workload[0].to_sql(), "sketch": None},
        )
        assert status == 200
        assert payload["ok"] is True
        assert payload["protocol_version"] == PROTOCOL_VERSION
        assert payload["estimate"] > 0
        assert payload["server_ms"] >= 0.0

    def test_unknown_path_is_404(self, served):
        _manager, server, _client = served
        status, payload = _post_json(
            server.url + "/v1/nope", {"protocol_version": PROTOCOL_VERSION}
        )
        assert status == 404 and payload["code"] == "not_found"

    def test_error_paths_close_keepalive_connections(self, served, workload):
        # A 404 POST never reads its body; answering keep-alive would
        # leave those bytes to be misparsed as the client's next
        # request line.  The server must signal Connection: close, and
        # a well-behaved keep-alive client then reconnects cleanly.
        import http.client

        _manager, server, _client = served
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            body = json.dumps(
                {"protocol_version": PROTOCOL_VERSION, "sql": "x"}
            )
            connection.request(
                "POST", "/v1/typo", body=body,
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            assert reply.status == 404
            reply.read()
            assert reply.headers.get("Connection", "").lower() == "close"
        finally:
            connection.close()
        # and the front door still answers a fresh connection
        status, payload = _post_json(
            server.url + "/v1/estimate",
            {"protocol_version": PROTOCOL_VERSION,
             "sql": workload[0].to_sql()},
        )
        assert status == 200 and payload["ok"] is True

    def test_bad_json_is_400(self, served):
        _manager, server, _client = served
        request = urllib.request.Request(
            server.url + "/v1/estimate",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert json.loads(exc.read())["code"] == "protocol"

    def test_malformed_content_length_is_400(self, served):
        # A gateway reads 5xx as a dead backend; a header the client
        # got wrong is the client's error, like any other bad envelope.
        import socket

        _manager, server, _client = served
        with socket.create_connection(
            (server.host, server.port), timeout=RESULT_TIMEOUT
        ) as sock:
            sock.sendall(
                b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):  # the door closes after an error
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        payload = json.loads(body)
        assert payload["code"] == "protocol" and payload["ok"] is False
        assert "Content-Length" in payload["error"]

    def test_version_skew_is_400(self, served, workload):
        _manager, server, _client = served
        status, payload = _post_json(
            server.url + "/v1/estimate",
            {"protocol_version": PROTOCOL_VERSION + 1,
             "sql": workload[0].to_sql()},
        )
        assert status == 400 and payload["code"] == "protocol"

    def test_concurrent_http_clients_share_the_engine(self, served, workload):
        # Many client threads, one engine: every request is answered
        # and the engine counters account for all of them.
        _manager, server, client = served
        before = server.stats_summary()["requests"]
        n_threads, per_thread = 4, 5
        failures = []

        def hammer(tid):
            try:
                for i in range(per_thread):
                    r = client.estimate(workload[(tid + i) % len(workload)])
                    assert r.ok
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        after = server.stats_summary()["requests"]
        assert after - before == n_threads * per_thread


class TestClientLifecycle:
    def test_unreachable_server_raises_remote_error(self):
        client = RemoteSketchServer("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(RemoteServerError, match="cannot reach"):
            client.estimate("SELECT COUNT(*) FROM title t;")
        client.close()

    def test_bad_url_rejected_at_construction(self):
        with pytest.raises(RemoteServerError, match="http"):
            RemoteSketchServer("ftp://example.com")

    def test_closed_client_refuses_work(self, served, workload):
        _manager, server, _client = served
        client = RemoteSketchServer(server.url)
        client.close()
        with pytest.raises(RemoteServerError, match="closed"):
            client.estimate(workload[0])
        client.close()  # idempotent

    def test_timings_split_wire_and_server(self, served, workload):
        _manager, _server, client = served
        client.estimate(workload[0])
        timings = client.timings()
        assert timings["wire"]["count"] >= 1
        assert timings["server"]["count"] >= 1
        # client-observed latency includes the server's handling time
        assert timings["wire"]["max"] >= 0.0

    def test_close_without_start_returns_promptly(self, imdb_small, trained_sketch):
        # shutdown() blocks on an event only serve_forever() sets; a
        # constructed-but-unstarted server must still close cleanly.
        sketch, _ = trained_sketch
        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        server = SketchHTTPServer(manager, ServeConfig(), port=0)
        done = threading.Event()

        def closer():
            server.close()
            server.close()  # idempotent
            done.set()

        thread = threading.Thread(target=closer, daemon=True)
        thread.start()
        assert done.wait(10.0), "close() deadlocked on an unstarted server"
        sketch.clear_cache()

    def test_server_close_drains_then_refuses(self, imdb_small, trained_sketch, workload):
        sketch, _ = trained_sketch
        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        server = SketchHTTPServer(manager, ServeConfig(), port=0).start()
        client = RemoteSketchServer(server.url, timeout=2.0)
        assert client.estimate(workload[0]).ok
        server.close()
        with pytest.raises((RemoteServerError, ProtocolError)):
            client.estimate(workload[1])
        client.close()
        sketch.clear_cache()

    def test_close_answers_every_inflight_request(
        self, imdb_small, trained_sketch, workload
    ):
        """close() while requests sit buffered in the engine: the drain
        flush answers all of them, none is dropped, none is accepted
        after close, and the stats reflect the drained count."""
        sketch, _ = trained_sketch
        sketch.clear_cache()
        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        # a flush horizon far beyond the test: only close() can flush
        config = ServeConfig(
            max_wait_ms=60_000.0, min_idle_ms=None, use_cache=False
        )
        server = SketchHTTPServer(manager, config, port=0).start()
        n = 6
        responses: list = [None] * n
        failures: list = []
        started = threading.Barrier(n + 1)

        def inflight_client(i):
            client = RemoteSketchServer(server.url, timeout=RESULT_TIMEOUT)
            try:
                started.wait(RESULT_TIMEOUT)
                responses[i] = client.estimate(workload[i])
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=inflight_client, args=(i,), daemon=True)
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        started.wait(RESULT_TIMEOUT)
        # wait for every request to be buffered inside the engine
        import time as _time

        deadline = _time.monotonic() + RESULT_TIMEOUT
        while (
            server.service.pending < n and _time.monotonic() < deadline
        ):
            _time.sleep(0.01)
        assert server.service.pending == n

        server.close()  # acceptor stops, then the engine drains
        for thread in threads:
            thread.join(RESULT_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)

        # every in-flight client got a real answer
        assert not failures
        assert all(r is not None and r.ok for r in responses)
        estimates = [r.estimate for r in responses]
        assert all(e > 0 for e in estimates)

        # the stats reflect exactly the drained requests
        stats = server.stats_summary()
        assert stats["requests"] == n
        assert stats["answered"] == n
        assert stats["flushes"].get("drain", 0) >= 1

        # and nothing is answered after close
        late = RemoteSketchServer(server.url, timeout=2.0)
        with pytest.raises((RemoteServerError, ProtocolError)):
            late.estimate(workload[0])
        late.close()
        sketch.clear_cache()


class _SendRecorder:
    """A socket stand-in that records every payload the handler sends."""

    def __init__(self, sock: socket.socket, sends: list):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestOneSegmentResponses:
    """Each response leaves in one write on a TCP_NODELAY socket.  A
    header block and a body written separately put a second small
    segment on the wire, which Nagle holds until the client's delayed
    ACK: ~40 ms a request."""

    @pytest.fixture()
    def recorded(self, imdb_small, trained_sketch):
        sketch, _ = trained_sketch
        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        server = SketchHTTPServer(manager, ServeConfig(), port=0, binary=False)
        sends: list[bytes] = []
        nodelay: list[int] = []
        base = server._httpd.RequestHandlerClass

        class Recording(base):
            def setup(self):
                self.request = _SendRecorder(self.request, sends)
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )

        server._httpd.RequestHandlerClass = Recording
        with server:
            yield server, sends, nodelay
        sketch.clear_cache()

    @staticmethod
    def _split(raw: bytes) -> tuple[int, dict, dict]:
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert len(body) == int(headers["Content-Length"])
        return int(status_line.split()[1]), headers, json.loads(body)

    def test_each_response_is_one_write(self, recorded, workload):
        server, sends, nodelay = recorded
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=RESULT_TIMEOUT
        )
        try:
            connection.request(
                "POST", "/v1/estimate",
                body=json.dumps({"protocol_version": PROTOCOL_VERSION,
                                 "sql": workload[0].to_sql()}),
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            assert reply.status == 200 and json.loads(reply.read())["ok"]
            connection.request("GET", "/v1/healthz")
            reply = connection.getresponse()
            assert reply.status == 200 and reply.read()
            connection.request(
                "POST", "/v1/estimate", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            assert reply.status == 400 and reply.read()
        finally:
            connection.close()

        # one keep-alive connection, three responses, three writes
        assert nodelay == [1]
        assert len(sends) == 3, [raw[:40] for raw in sends]
        (s1, _, estimate), (s2, _, health), (s3, headers, error) = map(
            self._split, sends
        )
        assert (s1, s2, s3) == (200, 200, 400)
        assert estimate["ok"] is True and health["status"] == "ok"
        assert error["code"] == "protocol"
        assert headers["Connection"] == "close"

    def test_http09_request_gets_the_bare_body(self, recorded):
        # HTTP/0.9 has no status line or headers: the body alone, in
        # one write, then the connection closes.
        server, sends, _nodelay = recorded
        with socket.create_connection(
            (server.host, server.port), timeout=RESULT_TIMEOUT
        ) as sock:
            sock.sendall(b"GET /v1/healthz\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert sends == [reply]
        assert json.loads(reply)["status"] == "ok"


class TestPromptClose:
    def test_started_door_closes_without_waiting_on_its_acceptors(
        self, imdb_small, trained_sketch
    ):
        # The binary acceptor blocks in accept() and the HTTP one polls
        # every 0.5 s; close() must wake both rather than wait them out.
        sketch, _ = trained_sketch
        manager = SketchManager(imdb_small)
        manager.register_sketch(sketch)
        server = SketchHTTPServer(manager, ServeConfig(), port=0).start()
        acceptors = (server._thread, server._binary._thread)
        assert all(thread.is_alive() for thread in acceptors)
        started = time.monotonic()
        server.close()
        elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"close() took {elapsed:.3f} s"
        assert not any(thread.is_alive() for thread in acceptors)
        sketch.clear_cache()
