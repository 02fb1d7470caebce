"""Wire schema v1: the bytes are pinned, and the spec is tested once.

Four layers.  The *golden* layer decodes fixtures captured from the
hand-written codecs this schema replaced and re-encodes them to the
identical bytes.  The *property* layer runs over every message in
``schema.MESSAGES`` with values generated from its rows: round-trip
identity per codec, cross-codec equivalence, and no decoder ever
raising anything but ``ProtocolError`` on hostile input.  The *derived*
layer adds a field to a message with one row and no codec code.  The
*doors* layer drives every ``OPERATIONS`` row over both transports
against a live front door.
"""

import http.client
import json
import socket
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql import parse_sql
from repro.demo import SketchManager
from repro.errors import ProtocolError
from repro.optimizer.plans import JoinNode, LeafNode
from repro.serve import (
    EstimateResponse,
    PlanResponse,
    RemoteSketchServer,
    ServeConfig,
    SketchHTTPServer,
    SketchServer,
    SubplanEstimate,
    protocol,
    schema,
    wire,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "wire_v1_golden.json").read_text()
)

#: Fixture message kind -> the declared message.
DECLARED = {
    "request": schema.REQUEST,
    "plan_request": schema.REQUEST,
    "batch_request": schema.BATCH_REQUEST,
    "response": schema.RESPONSE,
    "batch_response": schema.BATCH_RESPONSE,
    "plan_response": schema.PLAN_RESPONSE,
    "error": schema.ERROR,
}

SQLS = (
    "SELECT COUNT(*) FROM title t WHERE t.production_year > 2000;",
    "SELECT COUNT(*) FROM title t, movie_keyword mk "
    "WHERE mk.movie_id = t.id AND t.production_year > 2000;",
    "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_info mi "
    "WHERE mk.movie_id = t.id AND mi.movie_id = t.id;",
)
QUERIES = tuple(parse_sql(sql) for sql in SQLS)


# ----------------------------------------------------------------------
# golden layer
# ----------------------------------------------------------------------
class TestGoldenBytes:
    def test_fixture_speaks_this_version(self):
        assert GOLDEN["protocol_version"] == schema.PROTOCOL_VERSION == 1
        assert GOLDEN["wire_version"] == wire.WIRE_VERSION == 1
        assert {case["message"] for case in GOLDEN["cases"]} == set(DECLARED)

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"], ids=lambda c: f"{c['message']}-{c['name']}"
    )
    def test_decodes_and_reencodes_to_the_same_bytes(self, case):
        message = DECLARED[case["message"]]
        from_text = schema.from_json(message, json.loads(case["json"]))
        from_frame = schema.unpack(message, bytes.fromhex(case["binary"]))
        assert from_text == from_frame  # the two codecs agree on the value
        assert json.dumps(schema.to_json(message, *from_frame)) == case["json"]
        assert schema.pack(message, *from_text).hex() == case["binary"]


# ----------------------------------------------------------------------
# property layer: strategies derived from the rows
# ----------------------------------------------------------------------
TEXT = st.text(max_size=12)


@st.composite
def trees(draw):
    """A join tree over distinct aliases, of any shape."""
    aliases = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    nodes = [LeafNode(alias) for alias in aliases]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i : i + 2] = [JoinNode(nodes[i], nodes[i + 1])]
    return nodes[0]


def values_of(row: schema.Field):
    """In-memory values of one row, from what the row declares."""
    kind = row.kind
    if kind is schema.NESTED:
        elements = slots_of(row.message).map(lambda slots: slots[0])
        return st.lists(elements, max_size=3).map(row.container)
    if kind is schema.STRINGS:
        return st.lists(TEXT, max_size=4).map(row.container)
    if kind is schema.BOOL:
        return st.booleans()
    if kind is schema.ENUM:
        base = st.sampled_from(row.domain)
    elif kind is schema.TREE:
        base = trees()
    else:
        base = {
            schema.STR: TEXT,
            schema.SQL: TEXT | st.sampled_from(SQLS),
            schema.QUERY: st.sampled_from(QUERIES),
            # A decoder parses a Query-kind request back, so only real
            # queries are rendered; raw text may be anything.
            schema.SUBMITTED: TEXT | st.sampled_from(QUERIES),
            schema.F64: st.floats(allow_nan=False),
            schema.I64: st.integers(-(2**63), 2**63 - 1),
        }[kind]
    return st.none() | base if row.optional else base


def slots_of(message: schema.Message):
    """Valid in-memory slots of ``message``: one value per decoded row,
    kept when the message's own rules accept the combination."""
    rows = [row for row in message.rows if row.kind is not schema.OK]

    def build(fields):
        for row in rows:
            # wire v1: a binary batch has nowhere to carry the timing
            # of zero responses
            if row.carry and not fields[row.name] and fields[row.carry] is not None:
                return None
        try:
            return message.slots(dict(fields), "generated")
        except ProtocolError:
            return None

    return (
        st.fixed_dictionaries({row.name: values_of(row) for row in rows})
        .map(build)
        .filter(lambda slots: slots is not None)
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)


def _only_protocol_errors(decode, message, payload):
    try:
        decode(message, payload)
    except ProtocolError:
        pass


@pytest.mark.parametrize("message", schema.MESSAGES, ids=lambda m: m.what)
class TestEveryMessage:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_identity_and_cross_codec_equivalence(self, message, data):
        slots = data.draw(slots_of(message))
        text = json.dumps(schema.to_json(message, *slots))
        frame = schema.pack(message, *slots)
        from_text = schema.from_json(message, json.loads(text))
        from_frame = schema.unpack(message, frame)
        assert from_text == slots
        assert from_frame == slots
        # a Query stays a Query, text stays text
        assert repr(from_text) == repr(from_frame) == repr(slots)
        # and the decoded value re-encodes to the same bytes
        assert json.dumps(schema.to_json(message, *from_frame)) == text
        assert schema.pack(message, *from_text) == frame

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_frames_raise_only_protocol_error(self, message, data):
        frame = schema.pack(message, *data.draw(slots_of(message)))
        cut = data.draw(st.integers(0, len(frame)))
        _only_protocol_errors(schema.unpack, message, frame[:cut])
        junk = data.draw(st.binary(max_size=8))
        _only_protocol_errors(
            schema.unpack, message, frame[:cut] + junk + frame[cut + len(junk):]
        )
        _only_protocol_errors(schema.unpack, message, frame + junk)
        _only_protocol_errors(
            schema.unpack, message, data.draw(st.binary(max_size=64))
        )

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_every_truncation_of_a_frame_is_rejected(self, message, data):
        # Exhaustive companion of the fuzz above: no proper prefix of a
        # valid payload is itself a valid payload.
        frame = schema.pack(message, *data.draw(slots_of(message)))
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                schema.unpack(message, frame[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            schema.unpack(message, frame + b"\x00")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_json_raises_only_protocol_error(self, message, data):
        _only_protocol_errors(schema.from_json, message, data.draw(JSON_VALUES))
        payload = schema.to_json(message, *data.draw(slots_of(message)))
        key = data.draw(st.sampled_from(sorted(payload)))
        if data.draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = data.draw(JSON_VALUES)
        _only_protocol_errors(schema.from_json, message, payload)


# ----------------------------------------------------------------------
# both decoders accept the same values
# ----------------------------------------------------------------------
def _plan_response(plan):
    return PlanResponse(
        request="q", query=None, sketch=None, plan=plan, estimated_cost=1.0,
        subplans=(SubplanEstimate(aliases=("a",), estimate=1.0),),
    )


class TestDecodersAgree:
    """What the binary codec cannot express, the JSON decoder rejects;
    what either rejects is a ``ProtocolError``."""

    def _ok(self):
        return protocol.response_to_wire(
            EstimateResponse(
                request=SQLS[0], query=QUERIES[0], sketch="s", estimate=2.0
            )
        )

    def test_a_boolean_is_not_an_estimate(self):
        payload = self._ok()
        payload["estimate"] = True  # would read as 1.0; binary has no such value
        with pytest.raises(ProtocolError, match="estimate"):
            protocol.response_from_wire(payload)
        payload["estimate"] = 1  # an integer still is a number
        assert protocol.response_from_wire(payload).estimate == 1.0

    def test_a_string_is_not_a_flag(self):
        payload = self._ok()
        payload["cached"] = "no"  # truthy: would read as cached
        with pytest.raises(ProtocolError, match="cached"):
            protocol.response_from_wire(payload)
        del payload["cached"]  # absent still defaults
        assert protocol.response_from_wire(payload).cached is False

    def test_json_plan_tree_depth_is_guarded_like_binary(self):
        tree = "a0"
        for i in range(1, 900):
            tree = [tree, f"a{i}"]
        payload = protocol.plan_response_to_wire(_plan_response(LeafNode("a")))
        payload["plan"] = tree
        with pytest.raises(ProtocolError, match="nests deeper"):
            protocol.plan_response_from_wire(payload)
        legal = LeafNode("a0")
        for i in range(1, schema.MAX_PLAN_DEPTH + 1):
            legal = JoinNode(legal, LeafNode(f"a{i}"))
        for decoded in (
            protocol.plan_response_from_wire(
                protocol.plan_response_to_wire(_plan_response(legal))
            ),
            wire.decode_plan_response(
                wire.encode_plan_response(_plan_response(legal))
            )[0],
        ):
            assert decoded.plan == legal  # exactly at the bound: accepted

    def test_a_tree_repeating_an_alias_is_a_protocol_error(self):
        # JoinNode refuses overlapping sides with QueryError; a decoder
        # must not let that escape its ProtocolError-only contract.
        payload = protocol.plan_response_to_wire(_plan_response(LeafNode("a")))
        payload["plan"] = [["a", "b"], "b"]
        with pytest.raises(ProtocolError, match="invalid plan"):
            protocol.plan_response_from_wire(payload)
        good = JoinNode(JoinNode(LeafNode("a"), LeafNode("b")), LeafNode("c"))
        frame = wire.encode_plan_response(_plan_response(good))
        leaf_c = b"\x00\x00\x00\x00\x01c"
        assert frame.count(leaf_c) == 1
        with pytest.raises(ProtocolError, match="invalid plan"):
            wire.decode_plan_response(
                frame.replace(leaf_c, b"\x00\x00\x00\x00\x01b")
            )


# ----------------------------------------------------------------------
# derived layer: a new field is one row
# ----------------------------------------------------------------------
@dataclass
class TracedResponse(EstimateResponse):
    trace_id: str | None = None


TRACED = schema.Message(
    "traced response",
    [*schema.RESPONSE.rows, schema.Field("trace_id", schema.STR, optional=True)],
    binary=(*schema.RESPONSE.binary, "trace_id"),
    cls=TracedResponse,
    meta=schema.RESPONSE.slot_names,
    rules=schema.RESPONSE.rules,
)


class TestAddingAField:
    @pytest.mark.parametrize("trace_id", [None, "", "req-7f3a"])
    def test_one_extra_row_round_trips_through_both_walkers(self, trace_id):
        response = TracedResponse(
            request=QUERIES[1], query=QUERIES[1], sketch="imdb",
            estimate=12.5, cached=True, token=3, trace_id=trace_id,
        )
        payload = schema.to_json(TRACED, response, 1.5)
        assert list(payload)[-1] == "trace_id" and payload["trace_id"] == trace_id
        assert schema.from_json(TRACED, json.loads(json.dumps(payload))) == (
            response, 1.5,
        )
        frame = schema.pack(TRACED, response, 1.5)
        assert schema.unpack(TRACED, frame) == (response, 1.5)
        # additive: the new slot follows the v1 body, byte for byte
        assert frame.startswith(schema.pack(schema.RESPONSE, response, 1.5))

    def test_the_new_row_is_validated_like_any_string(self):
        response = TracedResponse(SQLS[0], None, None, 1.0)
        payload = schema.to_json(TRACED, response, None)
        payload["trace_id"] = 7
        with pytest.raises(ProtocolError, match="trace_id"):
            schema.from_json(TRACED, payload)


# ----------------------------------------------------------------------
# doors layer: every OPERATIONS row, both transports, one live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def door(imdb_small, trained_sketch):
    sketch, _ = trained_sketch
    sketch.clear_cache()
    manager = SketchManager(imdb_small)
    manager.register_sketch(sketch)
    with SketchHTTPServer(manager, ServeConfig(), port=0) as server:
        with SketchServer(manager, ServeConfig()).start() as direct:
            yield server, direct
    sketch.clear_cache()


def _request_for(message: schema.Message, sqls) -> tuple:
    """Slots of a request message carrying ``sqls``, from its rows."""
    return tuple(
        {schema.SQL: sqls[0], schema.STRINGS: list(sqls), schema.STR: None}[row.kind]
        for row in message.rows
    )


def _responses(result) -> list:
    return result if isinstance(result, list) else [result]


def _header(result) -> list:
    """The fields every response class shares."""
    return [
        (r.ok, r.request, r.query, r.sketch, r.error, r.code)
        for r in _responses(result)
    ]


def _over_http(server, op, slots):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = json.dumps(schema.to_json(op.request, *slots))
        conn.request("POST", op.path, body=body)
        reply = conn.getresponse()
        assert reply.status == 200
        return schema.from_json(op.response, json.loads(reply.read()))
    finally:
        conn.close()


def _over_frames(server, op, slots):
    with socket.create_connection(
        (server.host, server.binary_port), timeout=30
    ) as sock:
        wire.write_frame(sock, op.request_kind, schema.pack(op.request, *slots))
        reply_kind, payload = wire.read_frame(sock)
    assert reply_kind == op.reply_kind
    return schema.unpack(op.response, payload)


@pytest.mark.parametrize("op", schema.OPERATIONS, ids=lambda op: op.name)
class TestEveryOperation:
    def test_both_doors_answer_like_the_service(self, door, op):
        server, direct = door
        slots = _request_for(op.request, SQLS[:2])
        expected = _header(op.call(direct, *slots))
        assert all(ok for ok, *_ in expected)
        for transport in (_over_http, _over_frames):
            result, server_ms = transport(server, op, slots)
            assert _header(result) == expected
            assert isinstance(server_ms, float) and server_ms >= 0.0

    def test_request_failures_are_values_on_both_doors(self, door, op):
        server, _direct = door
        slots = _request_for(op.request, ["SELECT nonsense;"] * 2)
        for transport in (_over_http, _over_frames):
            result, _ = transport(server, op, slots)
            assert [(r.ok, r.code) for r in _responses(result)] == [
                (False, "parse")
            ] * len(_responses(result))

    @pytest.mark.parametrize("transport", ["json", "binary"])
    def test_the_sdk_round_trip_speaks_the_row(self, door, op, transport):
        server, direct = door
        slots = _request_for(op.request, SQLS[:2])
        with RemoteSketchServer(server.url, transport=transport) as client:
            result = client._round_trip(op.name, *slots)
            assert client.active_transport == transport
            assert client.timings()["server"]["count"] >= 1
        assert _header(result) == _header(op.call(direct, *slots))

    def test_rows_are_distinct_on_every_axis(self, op):
        for axis in ("name", "path", "request_kind", "reply_kind"):
            values = [getattr(row, axis) for row in schema.OPERATIONS]
            assert values.count(getattr(op, axis)) == 1
