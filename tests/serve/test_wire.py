"""The binary wire transport: frame identity, robustness, negotiation.

The acceptance contract: for every response class the engine produces,
``decode_response(encode_response(r))`` is field-for-field identity;
malformed traffic — truncated frames, oversized length prefixes,
mid-frame connection loss, version skew — lands in the existing
``ProtocolError`` / ``RemoteServerError`` taxonomy with no hangs and no
partial responses; and a client negotiates binary only when the server
advertises it, falling back to JSON everywhere else.
"""

import functools
import socket
import struct
import threading

import numpy as np
import pytest

from repro.db.sql import parse_sql
from repro.demo import SketchManager
from repro.errors import (
    ProtocolError,
    RemoteConnectionError,
    RemoteServerError,
)
from repro.serve import (
    CODE_DEADLINE,
    CODE_INTERNAL,
    CODE_PARSE,
    CODE_ROUTE,
    CODE_SHED,
    CODE_VOCAB,
    EstimateResponse,
    RemoteSketchServer,
    ServeConfig,
    SketchGateway,
    SketchHTTPServer,
)
from repro.serve import wire
from repro.workload import spec_for_imdb
from repro.workload.generator import TrainingQueryGenerator

PARITY_RTOL = 1e-12
RESULT_TIMEOUT = 30

SQL = "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;"
JOIN_SQL = (
    "SELECT COUNT(*) FROM title t, movie_keyword mk "
    "WHERE mk.movie_id = t.id AND t.production_year > 2000;"
)


def _response_of_every_class() -> dict[str, EstimateResponse]:
    query = parse_sql(SQL)
    join_query = parse_sql(JOIN_SQL)
    return {
        "ok_sql_request": EstimateResponse(
            request=SQL, query=query, sketch="imdb",
            estimate=1234.567891011, cached=False, token=7,
        ),
        "ok_query_request": EstimateResponse(
            request=join_query, query=join_query, sketch="imdb",
            estimate=0.3333333333333333, cached=True,
        ),
        CODE_PARSE: EstimateResponse(
            request="SELECT nonsense;", query=None, sketch=None,
            estimate=None, error="expected 'COUNT', found 'nonsense'",
            code=CODE_PARSE,
        ),
        CODE_ROUTE: EstimateResponse(
            request=SQL, query=query, sketch=None, estimate=None,
            error="no registered sketch covers tables ['title']",
            code=CODE_ROUTE,
        ),
        CODE_VOCAB: EstimateResponse(
            request=query, query=query, sketch="imdb", estimate=None,
            error="column 'episode_nr' is outside the vocabulary",
            code=CODE_VOCAB,
        ),
        CODE_SHED: EstimateResponse(
            request=SQL, query=query, sketch="imdb", estimate=None,
            error="request shed: queue depth 64 >= max_queue_depth 64",
            code=CODE_SHED,
        ),
        CODE_DEADLINE: EstimateResponse(
            request=query, query=query, sketch="imdb", estimate=None,
            error="deadline of 50ms exceeded", code=CODE_DEADLINE,
        ),
        CODE_INTERNAL: EstimateResponse(
            request=SQL, query=query, sketch="imdb", estimate=None,
            error="internal serving error: RuntimeError('boom')",
            code=CODE_INTERNAL,
        ),
    }


# ----------------------------------------------------------------------
# codec identity
# ----------------------------------------------------------------------
class TestCodecRoundTrip:
    @pytest.mark.parametrize("kind", sorted(_response_of_every_class()))
    def test_response_round_trip_is_identity(self, kind):
        response = _response_of_every_class()[kind]
        back, server_ms = wire.decode_response(
            wire.encode_response(response, server_ms=1.25)
        )
        assert back == response  # dataclass equality: every field exact
        assert type(back.request) is type(response.request)
        assert server_ms == 1.25

    def test_estimate_survives_at_full_precision(self):
        response = EstimateResponse(
            request=SQL, query=parse_sql(SQL), sketch="s",
            estimate=1.2345678901234567e17, cached=False,
        )
        back, _ = wire.decode_response(wire.encode_response(response))
        assert back.estimate == response.estimate

    def test_batch_round_trip(self):
        responses = list(_response_of_every_class().values())
        back, server_ms = wire.decode_batch_response(
            wire.encode_batch_response(responses, server_ms=9.5)
        )
        assert back == responses
        assert server_ms == 9.5

    def test_request_round_trip(self):
        sql, sketch = wire.decode_estimate_request(
            wire.encode_estimate_request(parse_sql(SQL), "imdb")
        )
        assert parse_sql(sql) == parse_sql(SQL)
        assert sketch == "imdb"
        sqls, sketch = wire.decode_batch_request(
            wire.encode_batch_request([SQL, JOIN_SQL], None)
        )
        assert sqls == [SQL, JOIN_SQL]
        assert sketch is None

    def test_error_frame_round_trip(self):
        message, code = wire.decode_error(
            wire.encode_error("version skew", "protocol")
        )
        assert (message, code) == ("version skew", "protocol")


# ----------------------------------------------------------------------
# frame robustness (socketpair-level)
# ----------------------------------------------------------------------
def _frame_bytes(kind: int, payload: bytes, *, version=None, magic=None,
                 length=None) -> bytes:
    return struct.pack(
        "!2sBBI",
        magic if magic is not None else wire.MAGIC,
        version if version is not None else wire.WIRE_VERSION,
        kind,
        length if length is not None else len(payload),
    ) + payload


class TestFrameRobustness:
    def _pipe(self):
        a, b = socket.socketpair()
        a.settimeout(RESULT_TIMEOUT)
        b.settimeout(RESULT_TIMEOUT)
        return a, b

    def test_round_trip_over_a_socket(self):
        a, b = self._pipe()
        try:
            wire.write_frame(a, wire.KIND_ERROR, wire.encode_error("x"))
            assert wire.read_frame(b) == (
                wire.KIND_ERROR, wire.encode_error("x")
            )
        finally:
            a.close(); b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = self._pipe()
        a.close()
        try:
            assert wire.read_frame(b) is None
        finally:
            b.close()

    def test_connection_loss_mid_header_is_truncated_frame(self):
        a, b = self._pipe()
        a.sendall(_frame_bytes(wire.KIND_ESTIMATE, b"abcd")[:3])
        a.close()
        try:
            with pytest.raises(wire.TruncatedFrame, match="mid-frame"):
                wire.read_frame(b)
        finally:
            b.close()

    def test_connection_loss_mid_payload_is_truncated_frame(self):
        a, b = self._pipe()
        frame = _frame_bytes(wire.KIND_ESTIMATE, b"x" * 64)
        a.sendall(frame[: len(frame) - 10])
        a.close()
        try:
            with pytest.raises(wire.TruncatedFrame, match="mid-frame"):
                wire.read_frame(b)
        finally:
            b.close()

    def test_bad_magic_is_protocol_error(self):
        a, b = self._pipe()
        a.sendall(_frame_bytes(wire.KIND_ESTIMATE, b"", magic=b"GE"))
        try:
            with pytest.raises(ProtocolError, match="magic"):
                wire.read_frame(b)
        finally:
            a.close(); b.close()

    def test_version_skew_is_protocol_error(self):
        a, b = self._pipe()
        a.sendall(
            _frame_bytes(
                wire.KIND_ESTIMATE, b"", version=wire.WIRE_VERSION + 1
            )
        )
        try:
            with pytest.raises(ProtocolError, match="wire version"):
                wire.read_frame(b)
        finally:
            a.close(); b.close()

    def test_oversized_length_prefix_refused_without_reading_payload(self):
        a, b = self._pipe()
        # the length prefix claims 1 GiB; only the 8-byte header travels
        a.sendall(
            _frame_bytes(
                wire.KIND_ESTIMATE, b"", length=1 << 30
            )
        )
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                wire.read_frame(b)
        finally:
            a.close(); b.close()

    def test_truncated_payload_fields_are_protocol_errors(self):
        good = wire.encode_response(
            _response_of_every_class()["ok_sql_request"], server_ms=1.0
        )
        for cut in (0, 1, 2, 7, len(good) // 2, len(good) - 1):
            with pytest.raises(ProtocolError):
                wire.decode_response(good[:cut])

    def test_trailing_bytes_are_protocol_errors(self):
        good = wire.encode_response(
            _response_of_every_class()["ok_sql_request"]
        )
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_response(good + b"\x00")

    def test_unknown_code_byte_is_protocol_error(self):
        payload = wire.encode_response(
            _response_of_every_class()[CODE_SHED]
        )
        corrupt = payload[:1] + bytes([250]) + payload[2:]
        with pytest.raises(ProtocolError, match="code"):
            wire.decode_response(corrupt)


# ----------------------------------------------------------------------
# end-to-end: binary transport against a live front door
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    with SketchHTTPServer(manager, ServeConfig(), port=0) as server:
        yield manager, server
    sketch.clear_cache()


@pytest.fixture(scope="module")
def workload(imdb_small):
    gen = TrainingQueryGenerator(imdb_small, spec_for_imdb(), seed=131)
    return gen.draw_many(24)


class TestBinaryTransportEndToEnd:
    def test_healthz_advertises_both_transports(self, served):
        _, server = served
        with RemoteSketchServer(server.url) as client:
            transports = client.healthz()["transports"]
        assert "json" in transports
        binary = transports["binary"]
        assert binary["port"] == server.binary_port
        assert binary["wire_version"] == wire.WIRE_VERSION

    def test_auto_negotiates_binary_and_matches_json_exactly(
        self, served, workload
    ):
        _, server = served
        with RemoteSketchServer(server.url, transport="json") as json_client:
            assert json_client.negotiate_transport() == "json"
            json_answers = json_client.estimate_many(workload)
        with RemoteSketchServer(server.url) as auto_client:
            assert auto_client.active_transport is None  # lazy
            binary_answers = auto_client.estimate_many(workload)
            assert auto_client.active_transport == "binary"
        assert all(r.ok for r in json_answers)
        assert all(r.ok for r in binary_answers)
        np.testing.assert_allclose(
            [r.estimate for r in binary_answers],
            [r.estimate for r in json_answers],
            rtol=PARITY_RTOL,
        )

    def test_single_estimates_and_futures_flow_over_binary(
        self, served, workload
    ):
        _, server = served
        with RemoteSketchServer(server.url, transport="binary") as client:
            single = client.estimate(workload[0])
            assert single.ok and single.estimate > 0
            assert single.request is workload[0]
            futures = client.submit_many(workload[:5])
            answers = [f.result(RESULT_TIMEOUT) for f in futures]
            assert all(r.ok for r in answers)
            timings = client.timings()
        assert timings["transport"] == "binary"
        assert timings["wire"]["count"] >= 6

    def test_request_failures_stay_structured_values(self, served):
        _, server = served
        with RemoteSketchServer(server.url, transport="binary") as client:
            bad = client.estimate("SELECT nonsense;")
            assert not bad.ok and bad.code == CODE_PARSE
            missing = client.estimate(SQL, sketch="no-such-sketch")
            assert not missing.ok and missing.code == CODE_ROUTE

    def test_sequential_requests_reuse_one_connection(self, served, workload):
        _, server = served
        with RemoteSketchServer(server.url, transport="binary") as client:
            for query in workload[:6]:
                assert client.estimate(query).ok
            opened = client.connections_opened
        # negotiation uses one JSON connection; the six estimates share
        # one persistent binary socket
        assert opened["binary"] == 1
        assert opened["json"] == 1

    def test_json_keepalive_reuses_connections(self, served, workload):
        _, server = served
        with RemoteSketchServer(server.url, transport="json") as client:
            for query in workload[:8]:
                assert client.estimate(query).ok
            client.healthz()
            opened = client.connections_opened["json"]
        assert opened == 1  # one dial for nine sequential round trips

    def test_garbage_on_the_binary_port_answers_error_then_closes(
        self, served
    ):
        _, server = served
        with socket.create_connection(
            ("127.0.0.1", server.binary_port), timeout=RESULT_TIMEOUT
        ) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            frame = wire.read_frame(sock)
            assert frame is not None
            kind, payload = frame
            assert kind == wire.KIND_ERROR
            message, code = wire.decode_error(payload)
            assert code == "protocol"
            assert wire.read_frame(sock) is None  # server closed after

    def test_client_maps_error_frame_onto_protocol_error(self, served):
        _, server = served
        with RemoteSketchServer(server.url, transport="binary") as client:
            client.negotiate_transport()
            with pytest.raises(ProtocolError):
                client._binary_call(0x7F, b"", "bogus")  # unknown kind

    def test_forced_binary_against_json_only_server_raises(self, served):
        _, server = served

        class NoBinary(RemoteSketchServer):
            def healthz(self):
                health = super().healthz()
                health.pop("transports", None)
                return health

        with NoBinary(server.url, transport="binary") as client:
            with pytest.raises(RemoteServerError, match="binary"):
                client.estimate(SQL)

    def test_version_skewed_server_is_a_protocol_error(self):
        """A listener that answers with a future wire version: the
        client refuses the frame before touching its payload."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def skewed():
            conn, _ = listener.accept()
            with conn:
                wire.read_frame(conn)
                conn.sendall(
                    _frame_bytes(
                        wire.KIND_RESPONSE, b"junk",
                        version=wire.WIRE_VERSION + 1,
                    )
                )

        thread = threading.Thread(target=skewed, daemon=True)
        thread.start()
        try:
            client = RemoteSketchServer("http://127.0.0.1:1", timeout=5)
            from repro.serve.client import _ConnectionPool, _dial_socket

            client._binary_pool = _ConnectionPool(
                functools.partial(_dial_socket, "127.0.0.1", port, 5)
            )
            client._active = "binary"
            with pytest.raises(ProtocolError, match="wire version"):
                client._binary_call(wire.KIND_ESTIMATE, b"", "estimate")
            client.close()
        finally:
            listener.close()
            thread.join(RESULT_TIMEOUT)

    def test_server_death_mid_frame_is_remote_server_error(self):
        """A listener that writes half a response header then slams the
        connection: the client surfaces RemoteServerError (request may
        have executed), never a partial response, never a hang."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def die_mid_frame():
            conn, _ = listener.accept()
            wire.read_frame(conn)
            conn.sendall(_frame_bytes(wire.KIND_RESPONSE, b"x" * 64)[:20])
            conn.close()  # FIN mid-payload: 20 of 72 frame bytes sent

        thread = threading.Thread(target=die_mid_frame, daemon=True)
        thread.start()
        try:
            client = RemoteSketchServer("http://127.0.0.1:1", timeout=5)
            from repro.serve.client import _ConnectionPool, _dial_socket

            client._binary_pool = _ConnectionPool(
                functools.partial(_dial_socket, "127.0.0.1", port, 5)
            )
            client._active = "binary"
            with pytest.raises(RemoteServerError, match="mid-frame"):
                client._binary_call(wire.KIND_ESTIMATE, b"", "estimate")
            client.close()
        finally:
            listener.close()
            thread.join(RESULT_TIMEOUT)


class TestGatewayNegotiation:
    def test_gateway_picks_binary_per_backend_and_reports_it(
        self, served, workload
    ):
        _, server = served
        with SketchGateway(
            [server.url], health_interval_s=None, timeout=RESULT_TIMEOUT
        ) as gateway:
            answers = gateway.estimate_many(workload[:8])
            assert all(r.ok for r in answers)
            transports = gateway.stats_summary()["gateway"]["transports"]
        assert transports == {server.url: "binary"}
