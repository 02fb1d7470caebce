"""Wire schema v1, declared once.

Every message the estimation service speaks — over JSON/HTTP
(:mod:`repro.serve.protocol`) and over binary frames
(:mod:`repro.serve.wire`) — is one :class:`Message` below: its
:class:`Field` rows in JSON key order, the order the same rows take in
a binary body, and the cross-field rules a decoder enforces.  A row
names its *kind* (a string, an f64, a closed enum, a join tree, ...);
four walkers — :func:`to_json` / :func:`from_json` and :func:`pack` /
:func:`unpack` — dispatch on the kind and are the whole codec.
``protocol.py`` and ``wire.py`` only bind them to the public
per-envelope names, and what a decoder accepts for a kind is stated
once, for every message and both transports.

The three remote operations are one :data:`OPERATIONS` row each (HTTP
path, frame kinds, request and response message, the
:class:`~repro.serve.service.SketchService` call); the HTTP handler,
the binary listener and the client SDK are driven from that table.

In memory a message is a tuple of *slots*.  A message with a ``cls``
gathers its rows into one instance of that class (slot 0) followed by
its ``meta`` rows — envelope metadata such as ``server_ms`` that is not
an attribute of the object; a message without one has a slot per row.
So ``unpack(RESPONSE, payload)`` is ``(EstimateResponse, server_ms)``
and ``from_json(REQUEST, payload)`` is ``(sql, sketch)``.

Facts of wire v1 the walkers reproduce (``docs/serving.md`` renders the
per-message tables from this module):

* every top-level JSON envelope opens with ``protocol_version`` and a
  decoder rejects any other version; a response nested in a batch is a
  full envelope and is version-checked too;
* a binary body whose rows own flag bits opens with one flag byte;
  strings are u32-length UTF-8 with ``0xFFFFFFFF`` for ``None``,
  optional numbers and trees are present only when their bit is set, a
  closed enum is one byte (``0`` = ``None``, else 1 + its position —
  appending to a domain is additive, re-ordering it a wire break),
  lists a u32 count bounded by ``MAX_FRAME_BYTES // 4``, join trees a
  preorder walk of ``0x00`` leaf / ``0x01`` join tags;
* ``to_sql`` and ``parse_sql`` run once per distinct query per
  envelope: batches repeat canonical queries, and parsing is ~90 % of
  unmarshalling a response.

Adding a field is one row here (plus the attribute on the in-memory
class); adding an operation is one :data:`OPERATIONS` row plus the
service method.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, NamedTuple

from ..db.sql import parse_sql
from ..errors import ProtocolError, QueryError
from ..optimizer.plans import JoinNode, LeafNode
from ..db.query import Query
from .engine import RESPONSE_CODES, EstimateResponse
from .plan import PLAN_RESPONSE_CODES, PlanResponse, SubplanEstimate

#: The schema version this build speaks.  Bump on any breaking change
#: to the messages below; receivers reject mismatches.
PROTOCOL_VERSION = 1

#: Largest accepted frame payload.  Matches the HTTP front door's body
#: bound: a batch of several thousand SQL strings fits, a runaway or
#: corrupt length prefix does not.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Join trees nest at most MAX_DP_RELATIONS deep in practice; a payload
#: claiming more is corrupt (and would otherwise recurse unboundedly).
MAX_PLAN_DEPTH = 64

#: Frame kinds of the binary transport.
KIND_ESTIMATE = 0x01        # client -> server: one request
KIND_BATCH = 0x02           # client -> server: a batch of requests
KIND_RESPONSE = 0x03        # server -> client: one response envelope
KIND_BATCH_RESPONSE = 0x04  # server -> client: a batch response envelope
KIND_ERROR = 0x05           # server -> client: transport-level failure
KIND_PLAN = 0x06            # client -> server: one plan advisory request
KIND_PLAN_RESPONSE = 0x07   # server -> client: a plan response envelope

_F64 = struct.Struct("!d")
_I64 = struct.Struct("!q")
_U32 = struct.Struct("!I")
_BYTE = tuple(bytes((i,)) for i in range(256))

#: ``None`` sentinel for optional strings (an impossible real length —
#: it exceeds MAX_FRAME_BYTES).
_NONE_LEN = 0xFFFFFFFF

# plan-tree node tags
_NODE_LEAF = 0x00
_NODE_JOIN = 0x01

#: Or-ed into the flag byte a decoder read, so that a row without a
#: flag bit always reads as present.
_ALWAYS = 0x100


# ----------------------------------------------------------------------
# the declaration: kinds, rows, messages
# ----------------------------------------------------------------------
class Kind:
    """A field kind.  The walkers dispatch on its identity; ``accepts``
    is what a JSON decoder takes for it, ``json_type`` and ``slot``
    name its two encodings in the rendered tables."""

    def __init__(self, json_type: str, slot: str, accepts=str, packer=None):
        self.json_type, self.slot = json_type, slot
        self.accepts, self.packer = accepts, packer


#: A string; ``None`` only where the row is optional.
STR = Kind("string", "string")
#: SQL text; a ``Query`` in memory is rendered on encode.  Decoded as
#: plain text: parsing a *request* is the engine's job, so malformed
#: SQL answers with its structured ``parse`` code, not a bad envelope.
SQL = Kind("string (SQL)", "string")
#: The parsed query: SQL text on the wire, a ``Query`` in memory
#: (``parse_sql(to_sql(q)) == q`` makes that lossless).
QUERY = Kind("string (SQL)", "string")
#: What the caller submitted, raw SQL text or a ``Query``: SQL text
#: plus which of the two it was — the sibling ``<name>_kind`` key in
#: JSON, the row's flag bit in binary — so a decoder rebuilds the same
#: object.
SUBMITTED = Kind('string (SQL), with `request_kind`: "sql" or "query"', "string")
#: Numbers.  A JSON boolean is not one: ``true`` must not read as 1.
F64 = Kind("number", "f64", (int, float), _F64)
I64 = Kind("integer", "i64", int, _I64)
#: JSON ``true`` / ``false`` (absent reads as false); in binary nothing
#: but the row's flag bit.
BOOL = Kind("boolean", "—", bool)
#: One of the row's closed ``domain`` of strings, or ``None``.
ENUM = Kind("string", "u8")
#: A join tree.  JSON: leaves are alias strings, joins two-element
#: ``[left, right]`` lists.  Binary: leaf tag + alias, or join tag +
#: both children.
TREE = Kind("alias string, or [left, right]", "preorder tree")
#: A list of required strings; ``Query`` elements are rendered.
STRINGS = Kind("list of strings", "u32 count, strings")
#: A list of the row's nested ``message``.
NESTED = Kind("list of objects", "u32 count, bodies")
#: JSON only, derived on encode and ignored on decode: whether the
#: message's ``error`` is null.
OK = Kind("boolean, derived: `error` is null", "—")

_RENDERED = (SQL, QUERY, SUBMITTED)
_TEXT = (STR, *_RENDERED)


class Field(NamedTuple):
    """One row of a message; ``name`` is the JSON key and the attribute
    of the message's ``cls``."""

    name: str
    kind: Kind
    #: The bit the row owns in the binary flag byte: the value of a
    #: BOOL, "was a ``Query``" of a SUBMITTED, else "is not ``None``".
    flag: int | None = None
    #: ``None`` / an absent JSON key is accepted (NESTED: no elements).
    optional: bool = False
    #: ENUM: the closed set, in wire order.
    domain: tuple = ()
    #: NESTED: the nested message.
    message: "Message | None" = None
    #: STRINGS / NESTED: the in-memory sequence type.
    container: type = list
    #: NESTED: a row of the *enclosing* message that has no binary slot
    #: of its own and rides on the first element instead (the one
    #: ``server_ms`` of a batch response); elements otherwise travel
    #: with their own metadata unset.
    carry: str | None = None


class Message:
    """One wire-v1 message, and the per-row tuples the walkers loop over.

    ``rows`` are in JSON key order; ``binary`` names the rows with a
    slot in the binary body, in body order (BOOL rows are only a flag
    bit, OK rows JSON-only).  ``cls`` is a plain dataclass with one
    attribute per row; ``meta`` rows follow it in the slots instead.
    ``versioned`` messages open with ``protocol_version`` in JSON.
    ``rules`` are run by both decoders over the decoded fields.
    """

    def __init__(self, what: str, rows, binary, *, cls: type | None = None,
                 meta=(), rules=(), versioned: bool = True):
        self.what, self.rows, self.binary = what, tuple(rows), tuple(binary)
        self.cls, self.rules, self.versioned = cls, tuple(rules), versioned
        self.unset = (None,) * len(meta)
        row = {r.name: r for r in self.rows}
        decoded = [r for r in self.rows if r.kind is not OK]
        #: The rows that are a slot of their own.
        self.slot_names = tuple(meta if cls else (r.name for r in decoded))
        self.json_rows = tuple((r.name, r.kind, r) for r in self.rows)
        self.decode_rows = tuple((r.name, r.kind, r) for r in decoded)
        self.flagged = any(r.flag for r in self.rows)
        self.bool_rows = tuple((r.name, r.flag) for r in decoded if r.kind is BOOL)
        self.pack_rows = tuple(
            (n, row[n].kind, row[n], row[n].flag or 0) for n in self.binary
        )
        self.unpack_rows = tuple(
            (n, row[n].kind, row[n], row[n].flag or _ALWAYS)
            for n in (*self.binary, *(name for name, _ in self.bool_rows))
        )

    def fields(self, slots: tuple) -> dict:
        """The values to encode, by row name (read-only)."""
        if self.cls is None:
            return dict(zip(self.slot_names, slots))
        if not self.slot_names:
            return vars(slots[0])
        fields = dict(vars(slots[0]))
        fields.update(zip(self.slot_names, slots[1:]))
        return fields

    def slots(self, fields: dict, what: str) -> tuple:
        """The decoded fields, checked, as the in-memory slots."""
        for rule in self.rules:
            rule(fields, what)
        own = [fields.pop(name) for name in self.slot_names]
        return tuple(own) if self.cls is None else (self.cls(**fields), *own)


def _code_needs_error(fields: dict, what: str) -> None:
    if fields["error"] is None and fields["code"] is not None:
        raise ProtocolError(
            f"{what} carries code {fields['code']!r} without an error"
        )


def _plan_xor_error(fields: dict, what: str) -> None:
    if (fields["plan"] is None) == (fields["error"] is None):
        raise ProtocolError(
            f"{what} must carry exactly one of a plan or an error"
        )


def _degraded_iff_code(fields: dict, what: str) -> None:
    if fields["degraded"] != (fields["code"] is not None):
        raise ProtocolError(
            f"{what}: a subplan's degradation and its code disagree"
        )


#: ``POST /v1/estimate`` and ``POST /v1/plan`` carry the same request:
#: one SQL text and an optionally pinned sketch (``null`` routes to the
#: narrowest covering one).
REQUEST = Message(
    "request",
    [Field("sql", SQL), Field("sketch", STR, optional=True)],
    binary=("sql", "sketch"),
)

BATCH_REQUEST = Message(
    "batch request",
    [Field("queries", STRINGS), Field("sketch", STR, optional=True)],
    binary=("queries", "sketch"),
)

#: ``token`` is the serving sketch's process-local snapshot version;
#: ``server_ms`` the server's measured handling time (envelope
#: metadata, not an ``EstimateResponse`` field).
RESPONSE = Message(
    "estimate response",
    [
        Field("ok", OK),
        Field("request", SUBMITTED, flag=0x01),
        Field("query", QUERY, optional=True),
        Field("sketch", STR, optional=True),
        Field("estimate", F64, flag=0x04, optional=True),
        Field("cached", BOOL, flag=0x02, optional=True),
        Field("error", STR, optional=True),
        Field("code", ENUM, optional=True, domain=RESPONSE_CODES),
        Field("token", I64, flag=0x08, optional=True),
        Field("server_ms", F64, flag=0x10, optional=True),
    ],
    binary=("code", "request", "query", "sketch", "error",
            "estimate", "token", "server_ms"),
    cls=EstimateResponse,
    meta=("server_ms",),
    rules=(_code_needs_error,),
)

#: One ``server_ms`` for the whole batch: a top-level key in JSON (the
#: nested envelopes carry ``null``), the first body's slot in binary.
BATCH_RESPONSE = Message(
    "batch response",
    [
        Field("responses", NESTED, message=RESPONSE, carry="server_ms"),
        Field("server_ms", F64, optional=True),
    ],
    binary=("responses",),
)

SUBPLAN = Message(
    "subplan",
    [
        Field("aliases", STRINGS, container=tuple),
        Field("estimate", F64),
        Field("cached", BOOL, flag=0x01, optional=True),
        Field("degraded", BOOL, flag=0x02, optional=True),
        Field("code", ENUM, optional=True, domain=RESPONSE_CODES),
        Field("error", STR, optional=True),
    ],
    binary=("code", "aliases", "estimate", "error"),
    cls=SubplanEstimate,
    rules=(_degraded_iff_code,),
    versioned=False,
)

PLAN_RESPONSE = Message(
    "plan response",
    [
        Field("ok", OK),
        Field("request", SUBMITTED, flag=0x01),
        Field("query", QUERY, optional=True),
        Field("sketch", STR, optional=True),
        Field("plan", TREE, flag=0x02, optional=True),
        Field("estimated_cost", F64, flag=0x04, optional=True),
        Field("subplans", NESTED, optional=True, message=SUBPLAN,
              container=tuple),
        Field("error", STR, optional=True),
        Field("code", ENUM, optional=True, domain=PLAN_RESPONSE_CODES),
        Field("estimate_ms", F64, flag=0x08, optional=True),
        Field("enumerate_ms", F64, flag=0x10, optional=True),
        Field("server_ms", F64, flag=0x20, optional=True),
    ],
    binary=("code", "request", "query", "sketch", "error", "estimated_cost",
            "estimate_ms", "enumerate_ms", "server_ms", "plan", "subplans"),
    cls=PlanResponse,
    meta=("server_ms",),
    rules=(_code_needs_error, _plan_xor_error),
)

#: Body of a non-2xx HTTP answer / a ``KIND_ERROR`` frame.  Distinct
#: from a *request* failure: a malformed payload has no request to
#: attach a response to, so the transport itself answers with this.
ERROR = Message(
    "transport error",
    [Field("ok", OK), Field("error", STR), Field("code", STR)],
    binary=("error", "code"),
)

MESSAGES = (REQUEST, BATCH_REQUEST, RESPONSE, BATCH_RESPONSE, SUBPLAN,
            PLAN_RESPONSE, ERROR)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def _pack_str(out: list, value: str | None) -> None:
    if value is None:
        out.append(_U32.pack(_NONE_LEN))
        return
    raw = value.encode("utf-8")
    out.append(_U32.pack(len(raw)))
    out.append(raw)


class _Reader:
    """Cursor over one frame payload; any overrun is a ProtocolError."""

    __slots__ = ("buf", "pos", "what")

    def __init__(self, payload: bytes, what: str):
        self.buf = payload
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise ProtocolError(
                f"{self.what} payload is truncated "
                f"(wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf)})"
            )
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def string(self) -> str | None:
        length = _U32.unpack(self.take(4))[0]
        if length == _NONE_LEN:
            return None
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"{self.what} carries an oversized string ({length} bytes)"
            )
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"{self.what} carries invalid UTF-8: {exc}"
            ) from exc

    def count(self, name: str) -> int:
        count = _U32.unpack(self.take(4))[0]
        if count > MAX_FRAME_BYTES // 4:
            raise ProtocolError(f"{self.what} claims {count} {name}")
        return count

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ProtocolError(
                f"{self.what} has {len(self.buf) - self.pos} "
                "trailing payload byte(s)"
            )


def _render(request, memo: dict):
    """The SQL text of ``request``; anything but a ``Query`` passes through.

    Batches repeat canonical queries (dedup'd streams, templated
    workloads); ``memo`` renders each distinct ``Query`` object once
    per envelope.
    """
    if not isinstance(request, Query):
        return request
    key = id(request)
    sql = memo.get(key)
    if sql is None:
        sql = memo[key] = request.to_sql()
    return sql


def _parse(sql: str, what: str, memo: dict) -> Query:
    """``parse_sql`` once per distinct SQL string per envelope.

    Decoding a batch re-parses every response's request and canonical
    query; a templated 512-request stream holds only a handful of
    distinct strings, and parsing dominates unmarshalling without this.
    """
    query = memo.get(sql)
    if query is None:
        try:
            query = memo[sql] = parse_sql(sql)
        except Exception as exc:
            raise ProtocolError(
                f"{what} carries unparseable SQL: {exc}"
            ) from exc
    return query


def _missing(what: str, name: str) -> ProtocolError:
    return ProtocolError(f"{what} is missing required field {name!r}")


def _check_object(payload, what: str) -> None:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )


def check_version(payload, what: str) -> None:
    """Reject payloads that are not dicts or speak another version."""
    _check_object(payload, what)
    version = payload.get("protocol_version")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what} carries protocol_version {version!r}; this build "
            f"speaks protocol version {PROTOCOL_VERSION}"
        )


# ----------------------------------------------------------------------
# join trees
# ----------------------------------------------------------------------
def _tree_to_json(node):
    if isinstance(node, JoinNode):
        return [_tree_to_json(node.left), _tree_to_json(node.right)]
    return node.alias


def _pack_tree(out: list, node) -> None:
    if isinstance(node, JoinNode):
        out.append(_BYTE[_NODE_JOIN])
        _pack_tree(out, node.left)
        _pack_tree(out, node.right)
    else:
        out.append(_BYTE[_NODE_LEAF])
        _pack_str(out, node.alias)


def _tree(step, source, what: str, depth: int = 0):
    """Decode one node of either encoding.  ``step(source, what)``
    reads it: an alias for a leaf, the two child sources for a join."""
    if depth > MAX_PLAN_DEPTH:
        raise ProtocolError(f"{what} plan tree nests deeper than {MAX_PLAN_DEPTH}")
    found = step(source, what)
    if isinstance(found, str):
        return LeafNode(found)
    left = _tree(step, found[0], what, depth + 1)
    right = _tree(step, found[1], what, depth + 1)
    try:
        return JoinNode(left, right)
    except QueryError as exc:  # the two sides share an alias
        raise ProtocolError(f"{what} carries an invalid plan: {exc}") from exc


def _json_node(obj, what: str):
    if isinstance(obj, str) or (isinstance(obj, list) and len(obj) == 2):
        return obj
    raise ProtocolError(
        f"{what} plan nodes must be alias strings or [left, right] "
        f"pairs, got {type(obj).__name__}"
    )


def _binary_node(r: _Reader, what: str):
    tag = r.u8()
    if tag == _NODE_JOIN:
        return r, r  # preorder: the left subtree is read first
    if tag != _NODE_LEAF:
        raise ProtocolError(f"{what} has unknown plan-node tag 0x{tag:02x}")
    alias = r.string()
    if alias is None:
        raise _missing(what, "alias")
    return alias


# ----------------------------------------------------------------------
# the walkers
# ----------------------------------------------------------------------
def to_json(message: Message, *slots) -> dict:
    """The JSON envelope of ``message`` for these in-memory slots."""
    return _to_json(message, slots, {})


def _to_json(message: Message, slots: tuple, memo: dict) -> dict:
    fields = message.fields(slots)
    out = {"protocol_version": PROTOCOL_VERSION} if message.versioned else {}
    for name, kind, row in message.json_rows:
        value = fields["error"] is None if kind is OK else fields[name]
        if kind in _RENDERED:
            value = _render(value, memo)
        elif kind is TREE:
            value = None if value is None else _tree_to_json(value)
        elif kind is STRINGS:
            value = [_render(item, memo) for item in value]
        elif kind is NESTED:
            nested, unset = row.message, row.message.unset
            value = [_to_json(nested, (item,) + unset, memo) for item in value]
        out[name] = value  # every other kind travels verbatim
        if kind is SUBMITTED:
            was_query = isinstance(fields[name], Query)
            out[name + "_kind"] = "query" if was_query else "sql"
    return out


def from_json(message: Message, payload) -> tuple:
    """Validate a JSON envelope; returns the message's slots.

    Raises only :class:`~repro.errors.ProtocolError`.
    """
    return _from_json(message, payload, {})


def _from_json(message: Message, payload, memo: dict) -> tuple:
    what = message.what
    if message.versioned:
        check_version(payload, what)
    else:
        _check_object(payload, what)
    fields: dict = {}
    for name, kind, row in message.decode_rows:
        value = payload.get(name)
        if value is None:
            if not row.optional:
                raise _missing(what, name)
            if kind is BOOL:
                value = False
            elif kind is NESTED:
                value = row.container()
        elif kind is TREE:
            value = _tree(_json_node, value, what)
        elif kind is STRINGS or kind is NESTED:
            if not isinstance(value, list):
                raise ProtocolError(f"{what} field {name!r} must be a list")
            if kind is NESTED:
                value = [_from_json(row.message, item, memo)[0] for item in value]
            else:
                for i, item in enumerate(value):
                    if not isinstance(item, str):
                        raise ProtocolError(f"{what} {name}[{i}] must be a string")
            value = row.container(value)
        elif not isinstance(value, kind.accepts) or (
            isinstance(value, bool) and kind is not BOOL
        ):
            raise ProtocolError(
                f"{what} field {name!r} must be a {kind.json_type}, "
                f"got {type(value).__name__}"
            )
        elif kind is F64:
            value = float(value)
        elif kind is ENUM:
            if value not in row.domain:
                raise ProtocolError(f"{what} has unknown error code {value!r}")
        elif kind is SUBMITTED:
            was = payload.get(name + "_kind")
            if was != "sql" and was != "query":
                raise ProtocolError(f"{what} has unknown {name}_kind {was!r}")
            if was == "query":
                value = _parse(value, what, memo)
        elif kind is QUERY:
            value = _parse(value, what, memo)
        fields[name] = value
    return message.slots(fields, what)


def pack(message: Message, *slots) -> bytes:
    """The binary frame payload of ``message`` for these slots."""
    out: list = []
    _pack(out, message, slots, {})
    return b"".join(out)


def _pack(out: list, message: Message, slots: tuple, memo: dict) -> None:
    fields = message.fields(slots)
    flags, flags_at = 0, len(out)
    if message.flagged:
        out.append(None)  # the flag byte: known once the body is written
    for name, bit in message.bool_rows:
        if fields[name]:
            flags |= bit
    for name, kind, row, bit in message.pack_rows:
        value = fields[name]
        if kind in _TEXT:
            if kind is SUBMITTED and isinstance(value, Query):
                flags |= bit
            _pack_str(out, _render(value, memo))
        elif kind is ENUM:
            domain = row.domain
            out.append(_BYTE[domain.index(value) + 1 if value in domain else 0])
        elif kind is STRINGS:
            out.append(_U32.pack(len(value)))
            for item in value:
                _pack_str(out, _render(item, memo))
        elif kind is NESTED:
            out.append(_U32.pack(len(value)))
            meta = (fields[row.carry],) if row.carry else row.message.unset
            for item in value:
                _pack(out, row.message, (item,) + meta, memo)
                meta = row.message.unset
        elif value is not None or not row.optional:  # F64, I64, TREE
            flags |= bit
            if kind is TREE:
                _pack_tree(out, value)
            else:
                out.append(kind.packer.pack(value))
    if message.flagged:
        out[flags_at] = _BYTE[flags]


def unpack(message: Message, payload: bytes) -> tuple:
    """Decode one frame payload; returns the message's slots.

    Raises only :class:`~repro.errors.ProtocolError` — on truncation,
    trailing bytes, oversized lengths, bad UTF-8 and every violation
    :func:`from_json` rejects.
    """
    r = _Reader(payload, "binary " + message.what)
    slots = _unpack(r, message, {})
    r.done()
    return slots


def _unpack(r: _Reader, message: Message, memo: dict) -> tuple:
    what = r.what
    flags = (r.u8() if message.flagged else 0) | _ALWAYS
    fields: dict = {}
    for name, kind, row, bit in message.unpack_rows:
        present = flags & bit
        if kind in _TEXT:
            value = r.string()
            if value is None:
                if not row.optional:
                    raise _missing(what, name)
            elif kind is QUERY or (kind is SUBMITTED and present):
                value = _parse(value, what, memo)
        elif kind is BOOL:
            value = bool(present)
        elif kind is ENUM:
            byte = r.u8()
            if byte > len(row.domain):
                raise ProtocolError(f"{what} has unknown error-code byte {byte}")
            value = row.domain[byte - 1] if byte else None
        elif kind is TREE:
            value = _tree(_binary_node, r, what) if present else None
        elif kind is STRINGS:
            value = row.container([r.string() for _ in range(r.count(name))])
            if None in value:
                raise _missing(what, name)
        elif kind is NESTED:
            items = [_unpack(r, row.message, memo) for _ in range(r.count(name))]
            if row.carry:
                fields[row.carry] = items[0][1] if items else None
            value = row.container([item[0] for item in items])
        else:  # F64, I64
            packer = kind.packer
            value = packer.unpack(r.take(packer.size))[0] if present else None
        fields[name] = value
    return message.slots(fields, what)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
class Operation(NamedTuple):
    """One remote operation: where it lives on each transport, what it
    reads and answers, and the service call in between (which takes the
    request message's slots)."""

    name: str
    path: str
    request_kind: int
    reply_kind: int
    request: Message
    response: Message
    call: Callable

    def answer(self, service, request_slots: tuple) -> tuple:
        """Run the operation; returns the response message's slots
        ``(result, server_ms)`` with the measured handling time."""
        t0 = time.perf_counter()
        result = self.call(service, *request_slots)
        return result, (time.perf_counter() - t0) * 1000.0


OPERATIONS = (
    Operation(
        "estimate", "/v1/estimate", KIND_ESTIMATE, KIND_RESPONSE,
        REQUEST, RESPONSE,
        lambda service, sql, sketch: service.submit(sql, sketch).result(),
    ),
    Operation(
        "estimate_batch", "/v1/estimate_batch", KIND_BATCH, KIND_BATCH_RESPONSE,
        BATCH_REQUEST, BATCH_RESPONSE,
        lambda service, sqls, sketch: service.serve(sqls, sketch),
    ),
    Operation(
        "plan", "/v1/plan", KIND_PLAN, KIND_PLAN_RESPONSE,
        REQUEST, PLAN_RESPONSE,
        lambda service, sql, sketch: service.plan(sql, sketch),
    ),
)
