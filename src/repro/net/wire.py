"""The ``repro.net`` wire format: framing plus a strict message codec.

Frames are length-prefixed: a 4-byte big-endian payload size followed by
a UTF-8 JSON document. The codec is deliberately strict — every decoder
validates shape and types and raises :class:`~repro.errors.WireError` on
the first violation, so a malformed or adversarial frame produces a clean
protocol error instead of crashing the receiving party.

Boundary artifacts and their encodings:

- *generalized values* (the elements of a published generalization
  sequence) are tagged arrays: ``["s", node]`` for categorical nodes and
  string patterns, ``["i", lo, hi]`` for intervals, ``["n", x]`` for raw
  numbers;
- *published views* carry holder name, QID order, and per-class id /
  sequence / size — exactly the public artifact of
  :class:`repro.protocol.PublishedView`;
- *match rules* travel as per-attribute ``(name, kind, threshold,
  effective_threshold)`` tuples; the receiving holder rebuilds a
  :class:`repro.linkage.distances.MatchRule` over lightweight
  :class:`WireMatchAttribute` stand-ins, which preserve every quantity
  the SMC oracles consult (hierarchies themselves never cross the wire);
- *handles* are ``[class_id, offset]`` integer pairs (the final
  ``resolve`` step), each holder's distinct handles in one list;
- *budget leases* are ``[left class_id, right class_id, take]`` integer
  triples, the rows of the querying party's ``(n, 3)`` lease array, and a
  lease's result is its matching ``[left_offset, right_offset]`` pairs in
  row-major order — validated against the lease's take and its classes'
  published sizes;
- *holder-link fetches* name ``[class_id, count]`` pairs and come back as
  the first ``min(count, class size)`` record projections of each class;
- *Paillier ciphertexts* are hex strings (big-int safe at any key size)
  tagged with the public modulus, and decode only under the receiver's
  own public key; a *public key* is its hex modulus and its hex
  randomizer base ``h_s``.

Integer rows (handles, leases, matched offsets, fetched class counts)
go through one strict decoder, :func:`decode_int_rows`, which checks a
whole list at once and returns an ``(n, width)`` array.

The handshake is versioned: ``hello``/``welcome`` carry
:data:`PROTOCOL_NAME` and :data:`PROTOCOL_VERSION`, and a mismatch is
rejected before any other message is interpreted.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.crypto.paillier import EncryptedNumber, PaillierPublicKey
from repro.data.vgh import Interval
from repro.errors import WireError
from repro.linkage.columns import OFFSET_DTYPE
from repro.linkage.distances import MatchRule
from repro.protocol import PublishedClass, PublishedView

#: Protocol identifier sent in every handshake.
PROTOCOL_NAME = "repro.net"

#: Current wire-format version; bumped on incompatible changes.
PROTOCOL_VERSION = 2

#: Frame header: big-endian unsigned payload length.
FRAME_HEADER = struct.Struct(">I")

#: Hard ceiling on one frame's payload; larger lengths are rejected
#: before any allocation (a malformed or hostile header must not be able
#: to balloon memory).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Roles a connecting peer may announce.
ROLES = ("query", "holder")

#: Attribute kinds a wire rule may carry.
RULE_KINDS = ("continuous", "categorical", "string")

#: Largest class id or size a view may publish: handles hold both as int32.
HANDLE_MAX = int(np.iinfo(OFFSET_DTYPE).max)


# ---------------------------------------------------------------------------
# validation primitives


def _fail(message: str) -> None:
    raise WireError(message)


def _expect_dict(value, what: str) -> dict:
    if not isinstance(value, dict):
        _fail(f"{what} must be an object, got {type(value).__name__}")
    return value


def _expect_list(value, what: str) -> list:
    if not isinstance(value, list):
        _fail(f"{what} must be an array, got {type(value).__name__}")
    return value


def _expect_str(value, what: str) -> str:
    if not isinstance(value, str):
        _fail(f"{what} must be a string, got {type(value).__name__}")
    return value


def _expect_int(
    value, what: str, *, minimum: int | None = None, maximum: int | None = None
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{what} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(f"{what} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(f"{what} must be <= {maximum}, got {value}")
    return value


def _expect_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{what} must be a number, got {type(value).__name__}")
    return value


def _expect_hex(value, what: str) -> int:
    text = _expect_str(value, what)
    try:
        return int(text, 16)
    except ValueError:
        raise WireError(f"{what} {text!r} is not hex") from None


def _get(obj: dict, key: str, what: str):
    if key not in obj:
        _fail(f"{what} is missing required field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# framing


def encode_frame(message: dict) -> bytes:
    """Serialize *message* into one length-prefixed frame."""
    payload = json.dumps(
        message, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_frame_length(header: bytes) -> int:
    """Validate a frame header and return the payload length."""
    if len(header) != FRAME_HEADER.size:
        _fail(f"truncated frame header ({len(header)} bytes)")
    (length,) = FRAME_HEADER.unpack(header)
    if length == 0:
        _fail("empty frame")
    if length > MAX_FRAME_BYTES:
        _fail(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_frame_payload(payload: bytes) -> dict:
    """Parse and shape-check one frame payload into a message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"frame payload is not valid JSON: {error}") from None
    message = _expect_dict(message, "message")
    _expect_str(_get(message, "type", "message"), "message type")
    return message


# ---------------------------------------------------------------------------
# generalized values, views, handles


def encode_value(value) -> list:
    """Encode one generalized value (VGH node, interval, or number)."""
    if isinstance(value, Interval):
        return ["i", value.lo, value.hi]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, bool):
        raise WireError(f"cannot encode boolean generalized value {value!r}")
    if isinstance(value, (int, float)):
        return ["n", value]
    raise WireError(
        f"cannot encode generalized value of type {type(value).__name__}"
    )


def decode_value(obj):
    """Decode one tagged generalized value."""
    item = _expect_list(obj, "generalized value")
    if not item:
        _fail("generalized value tag missing")
    tag = item[0]
    if tag == "s":
        if len(item) != 2:
            _fail("string value must be ['s', node]")
        return _expect_str(item[1], "string value")
    if tag == "i":
        if len(item) != 3:
            _fail("interval value must be ['i', lo, hi]")
        lo = _expect_number(item[1], "interval lo")
        hi = _expect_number(item[2], "interval hi")
        if lo > hi:
            _fail(f"interval bounds out of order: [{lo}, {hi})")
        return Interval(lo, hi)
    if tag == "n":
        if len(item) != 2:
            _fail("number value must be ['n', x]")
        return _expect_number(item[1], "number value")
    _fail(f"unknown generalized value tag {tag!r}")


def encode_view(view: PublishedView) -> dict:
    """Encode a holder's public artifact."""
    return {
        "holder": view.holder,
        "qids": list(view.qids),
        "classes": [
            {
                "id": published.class_id,
                "seq": [encode_value(value) for value in published.sequence],
                "size": published.size,
            }
            for published in view.classes
        ],
    }


def decode_view(obj) -> PublishedView:
    """Decode and validate a published view."""
    view = _expect_dict(obj, "published view")
    holder = _expect_str(_get(view, "holder", "view"), "view holder")
    qids = tuple(
        _expect_str(name, "view qid")
        for name in _expect_list(_get(view, "qids", "view"), "view qids")
    )
    classes = []
    seen_ids: set[int] = set()
    for entry in _expect_list(_get(view, "classes", "view"), "view classes"):
        entry = _expect_dict(entry, "published class")
        class_id = _expect_int(
            _get(entry, "id", "class"), "class id", minimum=0, maximum=HANDLE_MAX
        )
        if class_id in seen_ids:
            _fail(f"duplicate class id {class_id}")
        seen_ids.add(class_id)
        sequence = tuple(
            decode_value(value)
            for value in _expect_list(
                _get(entry, "seq", "class"), "class sequence"
            )
        )
        if len(sequence) != len(qids):
            _fail(
                f"class {class_id} sequence has {len(sequence)} values "
                f"for {len(qids)} QIDs"
            )
        size = _expect_int(
            _get(entry, "size", "class"), "class size", minimum=1, maximum=HANDLE_MAX
        )
        classes.append(PublishedClass(class_id, sequence, size))
    return PublishedView(holder=holder, qids=qids, classes=tuple(classes))


def decode_int_rows(obj, what: str, width: int = 2) -> np.ndarray:
    """Decode a list of *width*-item rows of JSON integers (not booleans)
    in ``0 .. 2**63 - 1`` as an ``(n, width)`` ``int64`` array, checking
    the whole list at once."""
    items = _expect_list(obj, what)
    if not set(map(type, items)) <= {list} or not set(map(len, items)) <= {width}:
        _fail(f"every {what} entry must be an array of {width} integers")
    return decode_indices(list(chain.from_iterable(items)), what).reshape(-1, width)


def decode_indices(obj, what: str) -> np.ndarray:
    """Decode a list of non-negative JSON integers as an ``int64`` array."""
    values = _expect_list(obj, what)
    if not set(map(type, values)) <= {int}:
        _fail(f"{what} must be integers")
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        raise WireError(f"{what} must be below 2**63") from None
    if (array < 0).any():
        _fail(f"{what} must be >= 0, got {array.min()}")
    return array


def decode_leases(obj) -> np.ndarray:
    """Decode and validate a batch of budget leases as an ``(n, 3)``
    ``int64`` array of ``[left class_id, right class_id, take]`` rows."""
    leases = decode_int_rows(obj, "leases", 3)
    if (leases[:, 2] < 1).any():
        _fail("lease take must be >= 1")
    return leases


def encode_lease_matches(matches) -> list:
    """Encode per-lease ``(m, 2)`` arrays of matching ``(left_offset,
    right_offset)`` rows as one ``[left, right]`` list per match."""
    return [offsets.tolist() for offsets in matches]


def decode_lease_matches(obj, takes: np.ndarray, shapes) -> list[np.ndarray]:
    """Decode per-lease matches, checking each against its lease's take.

    Each lease's matches come back as an ``(m, 2)``
    :data:`~repro.linkage.columns.OFFSET_DTYPE` array, as
    :meth:`repro.protocol.SMCBridge.compare_many` returns them.

    *takes* holds each lease's take and *shapes* its ``(left class size,
    right class size)``, as published. Every offset must fall inside its
    classes and among the lease's first ``take`` pairs, and a lease's
    offsets must be strictly increasing in row-major order (so there are
    never more than ``take``).
    The whole batch is decoded and checked as one array.
    """
    results = _expect_list(obj, "lease matches")
    if len(results) != len(takes):
        _fail(f"{len(results)} lease results for {len(takes)} leases")
    if not results:
        return []
    if not set(map(type, results)) <= {list}:
        _fail("every lease result must be an array")
    counts = np.fromiter(map(len, results), dtype=np.int64, count=len(results))
    over = np.flatnonzero(counts > takes)
    if len(over):
        _fail(f"{counts[over[0]]} matches for a lease of take {takes[over[0]]}")
    offsets = decode_int_rows(list(chain.from_iterable(results)), "matched offsets")
    sizes = np.repeat(np.array(shapes, dtype=np.int64), counts, axis=0)
    positions = offsets[:, 0] * sizes[:, 1] + offsets[:, 1]
    outside = (offsets >= sizes).any(axis=1) | (positions >= np.repeat(takes, counts))
    if outside.any():
        pair = offsets[outside.argmax()].tolist()
        _fail(f"matched offsets {pair} fall outside the class pair or the take")
    lease = np.repeat(np.arange(len(results)), counts)
    if ((np.diff(positions) <= 0) & (np.diff(lease) == 0)).any():
        _fail("matched offsets are not in row-major order")
    return np.split(offsets.astype(OFFSET_DTYPE), np.cumsum(counts)[:-1])


def encode_class_counts(classes) -> list:
    """Encode a holder-link fetch: ``(class_id, count)`` per class."""
    return [[class_id, count] for class_id, count in classes]


def decode_class_counts(obj) -> np.ndarray:
    """Decode a holder-link fetch's ``(n, 2)`` ``[class_id, count]`` rows."""
    classes = decode_int_rows(obj, "fetch classes")
    if (classes[:, 1] < 1).any():
        _fail("fetch count must be >= 1")
    return classes


def decode_class_rows(obj, counts, width: int) -> list[list[tuple]]:
    """Decode a holder-link reply: per class, 1..count record projections."""
    classes = _expect_list(obj, "fetched classes")
    if len(classes) != len(counts):
        _fail(f"{len(classes)} fetched classes for {len(counts)} requested")
    decoded = []
    for rows, count in zip(classes, counts):
        rows = _expect_list(rows, "fetched rows")
        if not 1 <= len(rows) <= count:
            _fail(f"{len(rows)} fetched rows for a request of {count}")
        decoded.append([decode_record_values(row, width) for row in rows])
    return decoded


# ---------------------------------------------------------------------------
# match rules


@dataclass(frozen=True)
class WireMatchAttribute:
    """A match-rule attribute as reconstructed from the wire.

    Mirrors the :class:`repro.linkage.distances.MatchAttribute` interface
    the SMC oracles and bound rules consult — name, kind flags, raw and
    effective thresholds — without shipping the hierarchy itself (the
    effective threshold already folds in the normalization factor).
    """

    name: str
    kind: str
    threshold: float
    _effective_threshold: float

    @property
    def is_continuous(self) -> bool:
        return self.kind == "continuous"

    @property
    def is_string(self) -> bool:
        return self.kind == "string"

    @property
    def effective_threshold(self) -> float:
        return self._effective_threshold

    def distance(self, left, right) -> float:
        from repro.linkage.distances import (
            edit_distance,
            euclidean_distance,
            hamming_distance,
        )

        if self.is_continuous:
            return euclidean_distance(left, right)
        if self.is_string:
            return float(edit_distance(left, right))
        return float(hamming_distance(left, right))

    def within_threshold(self, left, right) -> bool:
        return self.distance(left, right) <= self.effective_threshold


def encode_rule(rule: MatchRule) -> dict:
    """Encode the querying party's classifier for a holder."""
    attributes = []
    for attribute in rule:
        if attribute.is_continuous:
            kind = "continuous"
        elif attribute.is_string:
            kind = "string"
        else:
            kind = "categorical"
        attributes.append(
            {
                "name": attribute.name,
                "kind": kind,
                "threshold": attribute.threshold,
                "effective_threshold": attribute.effective_threshold,
            }
        )
    return {"attributes": attributes}


def decode_rule(obj) -> MatchRule:
    """Decode a wire rule into a :class:`MatchRule` over wire attributes."""
    rule = _expect_dict(obj, "match rule")
    entries = _expect_list(_get(rule, "attributes", "rule"), "rule attributes")
    if not entries:
        _fail("match rule carries no attributes")
    attributes = []
    for entry in entries:
        entry = _expect_dict(entry, "rule attribute")
        name = _expect_str(_get(entry, "name", "attribute"), "attribute name")
        kind = _expect_str(_get(entry, "kind", "attribute"), "attribute kind")
        if kind not in RULE_KINDS:
            _fail(f"unknown attribute kind {kind!r}")
        threshold = _expect_number(
            _get(entry, "threshold", "attribute"), "attribute threshold"
        )
        effective = _expect_number(
            _get(entry, "effective_threshold", "attribute"),
            "attribute effective threshold",
        )
        if threshold < 0 or effective < 0:
            _fail(f"negative threshold for attribute {name!r}")
        attributes.append(
            WireMatchAttribute(name, kind, threshold, effective)
        )
    return MatchRule(attributes)


# ---------------------------------------------------------------------------
# record values


def encode_record_values(values) -> list:
    """Encode a projection of raw record values (holder-to-holder only)."""
    encoded = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise WireError(
                f"cannot encode record value of type {type(value).__name__}"
            )
        encoded.append(value)
    return encoded


def decode_record_values(obj, expected_width: int) -> tuple:
    """Decode one projected record, validating arity and scalar types."""
    values = _expect_list(obj, "record values")
    if len(values) != expected_width:
        _fail(
            f"record projection has {len(values)} values, "
            f"expected {expected_width}"
        )
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            _fail(
                f"record value of type {type(value).__name__} is not a "
                "wire scalar"
            )
    return tuple(values)


# ---------------------------------------------------------------------------
# Paillier ciphertexts


def encode_public_key(key: PaillierPublicKey) -> dict:
    """Encode a Paillier public key (hex modulus and randomizer base)."""
    return {"n": format(key.n, "x"), "h_s": format(key.h_s, "x")}


def decode_public_key(obj) -> PaillierPublicKey:
    """Decode and validate a Paillier public key."""
    key = _expect_dict(obj, "public key")
    n = _expect_hex(_get(key, "n", "public key"), "public key modulus")
    if n < 3:
        _fail(f"public key modulus {n} is too small")
    h_s = _expect_hex(_get(key, "h_s", "public key"), "public key h_s")
    if not 1 <= h_s < n * n:
        _fail("public key h_s outside [1, n²)")
    if math.gcd(h_s, n) != 1:
        _fail("public key h_s is not a unit mod n")
    return PaillierPublicKey(n, h_s)


def encode_ciphertext(number: EncryptedNumber) -> dict:
    """Encode one Paillier ciphertext with its key's modulus."""
    return {
        "n": format(number.public_key.n, "x"),
        "c": format(number.ciphertext, "x"),
    }


def decode_ciphertext(obj, key: PaillierPublicKey) -> EncryptedNumber:
    """Decode and validate one Paillier ciphertext under the receiver's *key*.

    The frame's modulus must be *key*'s: a ciphertext under any other key
    is refused here rather than at decryption.
    """
    entry = _expect_dict(obj, "ciphertext")
    n = _expect_hex(_get(entry, "n", "ciphertext"), "ciphertext modulus")
    if n != key.n:
        _fail("ciphertext modulus differs from the receiver's public key")
    ciphertext = _expect_hex(_get(entry, "c", "ciphertext"), "ciphertext")
    if not 0 <= ciphertext < key.n_squared:
        _fail("ciphertext outside the key's residue space")
    return EncryptedNumber(key, ciphertext)


# ---------------------------------------------------------------------------
# handshake and message schemas


def hello_message(role: str, party: str) -> dict:
    """The first frame a connecting peer sends."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_NAME,
        "version": PROTOCOL_VERSION,
        "role": role,
        "party": party,
    }


def validate_hello(message: dict) -> dict:
    """Check an inbound hello; raises :class:`WireError` on mismatch.

    Protocol-name and version mismatches get dedicated messages so the
    rejection that reaches the peer says *why* (the versioned-handshake
    contract).
    """
    protocol = _expect_str(_get(message, "protocol", "hello"), "hello protocol")
    if protocol != PROTOCOL_NAME:
        _fail(f"peer speaks {protocol!r}, not {PROTOCOL_NAME!r}")
    version = _expect_int(_get(message, "version", "hello"), "hello version")
    if version != PROTOCOL_VERSION:
        _fail(
            f"protocol version mismatch: peer v{version}, "
            f"local v{PROTOCOL_VERSION}"
        )
    role = _expect_str(_get(message, "role", "hello"), "hello role")
    if role not in ROLES:
        _fail(f"unknown role {role!r}; choose from {ROLES}")
    _expect_str(_get(message, "party", "hello"), "hello party")
    return message


def welcome_message(party: str, schema_spec: list, record_count: int) -> dict:
    """The server's handshake reply."""
    return {
        "type": "welcome",
        "protocol": PROTOCOL_NAME,
        "version": PROTOCOL_VERSION,
        "party": party,
        "schema": schema_spec,
        "records": record_count,
    }


def validate_welcome(message: dict) -> dict:
    """Check an inbound welcome frame."""
    protocol = _expect_str(
        _get(message, "protocol", "welcome"), "welcome protocol"
    )
    if protocol != PROTOCOL_NAME:
        _fail(f"peer speaks {protocol!r}, not {PROTOCOL_NAME!r}")
    version = _expect_int(
        _get(message, "version", "welcome"), "welcome version"
    )
    if version != PROTOCOL_VERSION:
        _fail(
            f"protocol version mismatch: peer v{version}, "
            f"local v{PROTOCOL_VERSION}"
        )
    _expect_str(_get(message, "party", "welcome"), "welcome party")
    schema = _expect_list(_get(message, "schema", "welcome"), "welcome schema")
    for column in schema:
        pair = _expect_list(column, "schema column")
        if len(pair) != 2:
            _fail("schema column must be [name, kind]")
        _expect_str(pair[0], "schema column name")
        _expect_str(pair[1], "schema column kind")
    _expect_int(_get(message, "records", "welcome"), "welcome records", minimum=0)
    return message


def error_message(code: str, detail: str) -> dict:
    """An error reply; the connection survives unless handshaking."""
    return {"type": "error", "code": code, "message": detail}


def _decode_peer(obj) -> dict:
    """Decode the peer holder address ``smc_open`` names."""
    peer = _expect_dict(obj, "smc_open peer")
    _expect_str(_get(peer, "party", "peer"), "peer party")
    _expect_str(_get(peer, "host", "peer"), "peer host")
    _expect_int(_get(peer, "port", "peer"), "peer port", minimum=1, maximum=65535)
    return peer


#: Required fields (beyond ``type``) per request message type, with the
#: decoder applied to each. Responses are validated by their consumers.
_REQUEST_FIELDS: dict[str, dict] = {
    "get_view": {},
    "resolve": {"handles": lambda v: decode_int_rows(v, "handles")},
    "smc_open": {
        "session": lambda v: _expect_str(v, "session id"),
        "rule": decode_rule,
        "peer": _decode_peer,
    },
    "smc_batch": {
        "session": lambda v: _expect_str(v, "session id"),
        "seq": lambda v: _expect_int(v, "batch seq", minimum=1),
        "leases": decode_leases,
    },
    "smc_close": {"session": lambda v: _expect_str(v, "session id")},
    "fetch_records": {
        "names": lambda v: [
            _expect_str(n, "attribute name") for n in _expect_list(v, "names")
        ],
        "classes": decode_class_counts,
    },
}


def validate_request(message: dict) -> tuple[str, dict]:
    """Validate an inbound request frame; returns its type and its required
    fields, each decoded once.

    Unknown types and missing/ill-typed required fields raise
    :class:`WireError` — the strict-validator contract: a malformed frame
    is answered with an error frame, never a party crash.
    """
    kind = _expect_str(_get(message, "type", "request"), "request type")
    fields = _REQUEST_FIELDS.get(kind)
    if fields is None:
        _fail(f"unknown request type {kind!r}")
    return kind, {
        name: decode(_get(message, name, f"{kind} request"))
        for name, decode in fields.items()
    }
