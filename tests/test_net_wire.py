"""Wire-codec tests: round-trips (property-based) and strict rejection.

The codec's contract has two halves. Everything the protocol can
legitimately produce must survive an encode/decode round trip unchanged —
checked with hypothesis over generalized values, views, handles, budget
leases and their matched offsets, rules, and ciphertexts. And everything else — truncated, oversized, mistyped, or
version-skewed frames — must raise :class:`~repro.errors.WireError`
instead of crashing or being misread.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import EncryptedNumber, PaillierKeyPair
from repro.data.vgh import Interval
from repro.errors import ConfigurationError, WireError
from repro.linkage.distances import MatchRule
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireMatchAttribute,
    decode_ciphertext,
    decode_class_counts,
    decode_class_rows,
    decode_frame_length,
    decode_frame_payload,
    decode_int_rows,
    decode_lease_matches,
    decode_leases,
    decode_public_key,
    decode_record_values,
    decode_rule,
    decode_value,
    decode_view,
    encode_ciphertext,
    encode_frame,
    encode_class_counts,
    encode_lease_matches,
    encode_public_key,
    encode_record_values,
    encode_rule,
    encode_value,
    encode_view,
    hello_message,
    validate_hello,
    validate_request,
    validate_welcome,
    welcome_message,
)
from repro.protocol import PublishedClass, PublishedView

# ---------------------------------------------------------------------------
# strategies

finite_numbers = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

intervals = st.tuples(finite_numbers, finite_numbers).map(
    lambda bounds: Interval(min(bounds), max(bounds))
)

generalized_values = st.one_of(st.text(max_size=40), intervals, finite_numbers)

handles = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


@st.composite
def views(draw):
    qids = draw(
        st.lists(
            st.text(min_size=1, max_size=12), min_size=1, max_size=4, unique=True
        )
    )
    class_count = draw(st.integers(min_value=0, max_value=6))
    classes = tuple(
        PublishedClass(
            class_id,
            tuple(
                draw(generalized_values) for _ in range(len(qids))
            ),
            draw(st.integers(min_value=1, max_value=500)),
        )
        for class_id in range(class_count)
    )
    return PublishedView(
        holder=draw(st.text(min_size=1, max_size=12)), qids=tuple(qids), classes=classes
    )


leases = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**9),
)


@st.composite
def lease_results(draw):
    """Lease takes with their class sizes and valid row-major matched offsets."""
    count = draw(st.integers(min_value=0, max_value=6))
    takes, shapes, matches = [], [], []
    for _ in range(count):
        left_size = draw(st.integers(min_value=1, max_value=40))
        right_size = draw(st.integers(min_value=1, max_value=40))
        take = draw(st.integers(min_value=1, max_value=left_size * right_size))
        positions = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=take - 1), max_size=20
                )
            )
        )
        takes.append(take)
        shapes.append((left_size, right_size))
        matches.append([divmod(position, right_size) for position in positions])
    return np.array(takes, dtype=np.int64), shapes, matches


@st.composite
def rules(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    attributes = []
    for index in range(count):
        kind = draw(st.sampled_from(("continuous", "categorical", "string")))
        threshold = draw(
            st.floats(min_value=0, max_value=100, allow_nan=False)
        )
        effective = draw(
            st.floats(min_value=0, max_value=1000, allow_nan=False)
        )
        attributes.append(
            WireMatchAttribute(f"attr{index}", kind, threshold, effective)
        )
    return MatchRule(attributes)


# ---------------------------------------------------------------------------
# round trips

KEY_PAIR = PaillierKeyPair.generate(256)


class TestRoundTrips:
    @given(generalized_values)
    def test_value_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(views())
    @settings(max_examples=50, deadline=None)
    def test_view_round_trip(self, view):
        assert decode_view(encode_view(view)) == view

    @given(st.lists(leases, max_size=20))
    def test_lease_batch_round_trip(self, batch):
        rows = [list(lease) for lease in batch]
        # The frame carries one [left, right, take] list of ints per lease,
        # the rows of the querying party's lease array.
        wired = json.dumps(np.array(rows, dtype=np.int64).reshape(-1, 3).tolist())
        assert wired == json.dumps(rows)
        decoded = decode_leases(json.loads(wired))
        assert decoded.dtype == np.int64
        assert decoded.shape == (len(rows), 3)
        assert decoded.tolist() == rows

    @given(lease_results())
    def test_lease_matches_round_trip(self, case):
        takes, shapes, matches = case
        arrays = [
            np.array(offsets, dtype=np.int32).reshape(-1, 2) for offsets in matches
        ]
        wired = json.loads(json.dumps(encode_lease_matches(arrays)))
        # One [left, right] list per match on the wire.
        assert wired == [[list(pair) for pair in offsets] for offsets in matches]
        decoded = decode_lease_matches(wired, takes, shapes)
        assert [offsets.dtype for offsets in decoded] == [np.int32] * len(matches)
        assert [offsets.shape for offsets in decoded] == [
            (len(offsets), 2) for offsets in matches
        ]
        assert [offsets.tolist() for offsets in decoded] == wired

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=10**6),
            ),
            max_size=10,
        )
    )
    def test_class_counts_round_trip(self, classes):
        decoded = decode_class_counts(encode_class_counts(classes))
        assert decoded.shape == (len(classes), 2)
        assert decoded.tolist() == [list(pair) for pair in classes]

    @given(st.lists(handles, max_size=20))
    def test_handle_round_trip(self, batch):
        # The client sends one side's distinct handles as an array's rows.
        wired = np.array(batch, dtype=np.int64).reshape(-1, 2).tolist()
        decoded = decode_int_rows(json.loads(json.dumps(wired)), "handles")
        assert decoded.shape == (len(batch), 2)
        assert [tuple(row) for row in decoded.tolist()] == batch

    @given(rules())
    @settings(max_examples=50, deadline=None)
    def test_rule_round_trip(self, rule):
        decoded = decode_rule(encode_rule(rule))
        for original, wired in zip(rule, decoded):
            assert wired.name == original.name
            assert wired.is_continuous == original.is_continuous
            assert wired.is_string == original.is_string
            assert wired.threshold == original.threshold
            assert wired.effective_threshold == original.effective_threshold

    @given(st.integers(min_value=0, max_value=2**255))
    @settings(max_examples=50, deadline=None)
    def test_ciphertext_round_trip(self, plaintext_bits):
        ciphertext = plaintext_bits % KEY_PAIR.public_key.n_squared
        number = EncryptedNumber(KEY_PAIR.public_key, ciphertext)
        decoded = decode_ciphertext(
            encode_ciphertext(number), KEY_PAIR.public_key
        )
        assert decoded.ciphertext == number.ciphertext
        assert decoded.public_key == KEY_PAIR.public_key

    def test_decoded_ciphertext_decrypts_under_the_real_key(self):
        number = KEY_PAIR.public_key.encrypt(4242)
        decoded = decode_ciphertext(
            encode_ciphertext(number), KEY_PAIR.public_key
        )
        assert KEY_PAIR.private_key.decrypt(decoded) == 4242

    def test_public_key_round_trip(self):
        key = KEY_PAIR.public_key
        assert decode_public_key(encode_public_key(key)) == key

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=20),
                st.integers(min_value=-(10**9), max_value=10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=8,
        )
    )
    def test_record_values_round_trip(self, values):
        decoded = decode_record_values(
            encode_record_values(values), len(values)
        )
        assert decoded == tuple(values)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.one_of(st.text(max_size=20), st.integers(), st.booleans()),
            max_size=6,
        )
    )
    def test_frame_round_trip(self, extra):
        message = {"type": "probe", **extra}
        frame = encode_frame(message)
        length = decode_frame_length(frame[: FRAME_HEADER.size])
        assert length == len(frame) - FRAME_HEADER.size
        assert decode_frame_payload(frame[FRAME_HEADER.size :]) == message


# ---------------------------------------------------------------------------
# strict rejection

class TestFrameRejection:
    def test_oversized_declared_length(self):
        header = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds"):
            decode_frame_length(header)

    def test_empty_frame(self):
        with pytest.raises(WireError, match="empty"):
            decode_frame_length(FRAME_HEADER.pack(0))

    def test_truncated_header(self):
        with pytest.raises(WireError, match="truncated"):
            decode_frame_length(b"\x00\x01")

    def test_oversized_payload_refused_at_encode(self):
        message = {"type": "blob", "data": "x" * (MAX_FRAME_BYTES + 16)}
        with pytest.raises(WireError, match="exceeds"):
            encode_frame(message)

    def test_non_json_payload(self):
        with pytest.raises(WireError, match="not valid JSON"):
            decode_frame_payload(b"\xff\xfe garbage")

    def test_non_object_payload(self):
        with pytest.raises(WireError, match="must be an object"):
            decode_frame_payload(json.dumps([1, 2, 3]).encode())

    def test_missing_type(self):
        with pytest.raises(WireError, match="missing required field 'type'"):
            decode_frame_payload(json.dumps({"seq": 1}).encode())


class TestValueRejection:
    @pytest.mark.parametrize(
        "payload",
        [
            [],                     # no tag
            ["x", 1],               # unknown tag
            ["s"],                  # arity
            ["s", 42],              # wrong type
            ["i", 1],               # arity
            ["i", 5, 1],            # bounds out of order
            ["i", "a", "b"],        # wrong types
            ["n", "nope"],          # wrong type
            "bare-string",          # not a list
        ],
    )
    def test_malformed_value(self, payload):
        with pytest.raises(WireError):
            decode_value(payload)

    def test_boolean_value_not_encodable(self):
        with pytest.raises(WireError):
            encode_value(True)


class TestViewRejection:
    def good(self):
        return {
            "holder": "alice",
            "qids": ["age"],
            "classes": [{"id": 0, "seq": [["n", 4]], "size": 2}],
        }

    def test_good_baseline(self):
        decode_view(self.good())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda v: v.pop("holder"),
            lambda v: v.pop("qids"),
            lambda v: v.pop("classes"),
            lambda v: v["classes"][0].pop("id"),
            lambda v: v["classes"][0].update(size=0),
            lambda v: v["classes"][0].update(size="two"),
            lambda v: v["classes"][0].update(seq=[]),  # arity vs qids
            lambda v: v["classes"].append(dict(v["classes"][0])),  # dup id
            lambda v: v.update(qids="age"),
            # Handles hold class ids and offsets as int32.
            lambda v: v["classes"][0].update(id=2**31),
            lambda v: v["classes"][0].update(size=2**31),
        ],
    )
    def test_malformed_view(self, mutate):
        view = self.good()
        mutate(view)
        with pytest.raises(WireError):
            decode_view(view)


class TestLeaseRejection:
    @pytest.mark.parametrize(
        "payload",
        [
            {},                         # not a list
            [[0, 1]],                   # arity
            [[0, 1, 2, 3]],             # arity
            [["0", 1, 2]],              # non-int left id
            [[0, 1.0, 2]],              # non-int right id
            [[True, 1, 2]],             # bool id
            [[0, False, 2]],            # bool id
            [[-1, 1, 2]],               # negative id
            [[0, 1, 0]],                # take 0
            [[0, 1, -5]],               # negative take
            [[0, 1, True]],             # bool take
        ],
    )
    def test_malformed_leases(self, payload):
        with pytest.raises(WireError):
            decode_leases(payload)

    # One lease of take 7 over a 3 x 4 class pair: row-major positions
    # 0..6, i.e. offsets (0, 0)..(1, 2).
    TAKES = np.array([7])
    SHAPE = [(3, 4)]

    def test_good_matches(self):
        matches = [[[0, 0], [0, 3], [1, 2]]]
        [decoded] = decode_lease_matches(matches, self.TAKES, self.SHAPE)
        assert decoded.dtype == np.int32
        assert decoded.tolist() == matches[0]

    @pytest.mark.parametrize(
        "matches",
        [
            {},                             # not a list
            [],                             # one result per lease
            [[], []],                       # one result per lease
            [[[0, 0, 0]]],                  # arity
            [[[0, "1"]]],                   # non-int offset
            [[[True, 0]]],                  # bool offset
            [[[-1, 0]]],                    # negative offset
            [[[0, 4]]],                     # right offset outside the class
            [[[3, 0]]],                     # left offset outside the class
            [[[1, 3]]],                     # position 7: past the take
            [[[0, 2], [0, 1]]],             # not row-major
            [[[0, 1], [0, 1]]],             # repeated
            [[[0, i] for i in range(4)] + [[1, i] for i in range(4)]],
        ],
    )
    def test_malformed_matches(self, matches):
        with pytest.raises(WireError):
            decode_lease_matches(matches, self.TAKES, self.SHAPE)

    def test_more_offsets_than_take(self):
        with pytest.raises(WireError, match="matches for a lease of take 2"):
            decode_lease_matches(
                [[[0, 0], [0, 1], [0, 2]]], np.array([2]), [(1, 3)]
            )


class TestHolderFetchRejection:
    @pytest.mark.parametrize(
        "payload",
        [[[0]], [[0, 0]], [[-1, 3]], [[0, True]], [["0", 3]], "classes"],
    )
    def test_malformed_class_counts(self, payload):
        with pytest.raises(WireError):
            decode_class_counts(payload)

    def test_good_rows(self):
        rows = [[[39, "Private"]], [[40, "State-gov"], [41, "Private"]]]
        assert decode_class_rows(rows, [1, 3], 2) == [
            [(39, "Private")],
            [(40, "State-gov"), (41, "Private")],
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            [[[39, "Private"]]],                        # one class short
            [[[39, "Private"]], []],                    # no rows for a class
            [[[39, "Private"], [40, "x"]], [[41, "y"]]],  # more than asked
            [[[39]], [[41, "y"]]],                      # wrong row width
            [[[39, None]], [[41, "y"]]],                # not a wire scalar
        ],
    )
    def test_wrong_row_count_or_shape(self, rows):
        with pytest.raises(WireError):
            decode_class_rows(rows, [1, 3], 2)


class TestRuleRejection:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"attributes": []},
            {"attributes": [{"name": "a", "kind": "weird", "threshold": 1,
                             "effective_threshold": 1}]},
            {"attributes": [{"name": "a", "kind": "continuous",
                             "threshold": -1, "effective_threshold": 1}]},
            {"attributes": [{"kind": "continuous", "threshold": 1,
                             "effective_threshold": 1}]},
        ],
    )
    def test_malformed_rule(self, payload):
        with pytest.raises(WireError):
            decode_rule(payload)


class TestCiphertextRejection:
    def test_bad_hex(self):
        key = KEY_PAIR.public_key
        with pytest.raises(WireError):
            decode_ciphertext({"n": "zz", "c": "10"}, key)
        with pytest.raises(WireError):
            decode_ciphertext({"n": format(key.n, "x"), "c": "not-hex"}, key)

    def test_ciphertext_outside_residue_space(self):
        key = KEY_PAIR.public_key
        n = key.n
        with pytest.raises(WireError, match="residue"):
            decode_ciphertext(
                {"n": format(n, "x"), "c": format(n * n, "x")}, key
            )

    def test_tiny_modulus(self):
        with pytest.raises(WireError):
            decode_ciphertext({"n": "2", "c": "1"}, KEY_PAIR.public_key)

    def test_foreign_modulus(self):
        foreign_n = format(KEY_PAIR.public_key.n + 2, "x")
        with pytest.raises(WireError, match="differs"):
            decode_ciphertext({"n": foreign_n, "c": "1"}, KEY_PAIR.public_key)


class TestPublicKeyRejection:
    @staticmethod
    def encoded(**fields):
        obj = encode_public_key(KEY_PAIR.public_key)
        obj.update(fields)
        return {name: value for name, value in obj.items() if value is not None}

    def test_missing_h_s(self):
        with pytest.raises(WireError, match="h_s"):
            decode_public_key(self.encoded(h_s=None))

    @pytest.mark.parametrize("h_s", ["not-hex", "", 17])
    def test_non_hex_h_s(self, h_s):
        with pytest.raises(WireError):
            decode_public_key(self.encoded(h_s=h_s))

    def test_h_s_outside_residue_range(self):
        n = KEY_PAIR.public_key.n
        for h_s in (0, n * n, -1):
            with pytest.raises(WireError, match="outside"):
                decode_public_key(self.encoded(h_s=format(h_s, "x")))

    def test_h_s_sharing_a_factor_with_n(self):
        p = KEY_PAIR.private_key.p
        with pytest.raises(WireError, match="unit"):
            decode_public_key(self.encoded(h_s=format(p, "x")))

    def test_bad_modulus(self):
        with pytest.raises(WireError):
            decode_public_key(self.encoded(n="zz"))
        with pytest.raises(WireError, match="too small"):
            decode_public_key(self.encoded(n="2"))


class TestHandshake:
    def test_hello_accepted(self):
        validate_hello(hello_message("query", "tester"))

    def test_version_mismatch_rejected(self):
        hello = hello_message("query", "tester")
        hello["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version mismatch"):
            validate_hello(hello)

    def test_wrong_protocol_rejected(self):
        hello = hello_message("query", "tester")
        hello["protocol"] = "repro.other"
        with pytest.raises(WireError, match="speaks"):
            validate_hello(hello)

    def test_unknown_role_rejected(self):
        hello = hello_message("query", "tester")
        hello["role"] = "observer"
        with pytest.raises(WireError, match="role"):
            validate_hello(hello)

    def test_welcome_version_mismatch_rejected(self):
        welcome = welcome_message("alice", [["age", "continuous"]], 10)
        welcome["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version mismatch"):
            validate_welcome(welcome)

    def test_welcome_schema_validated(self):
        welcome = welcome_message("alice", [["age"]], 10)
        with pytest.raises(WireError, match="schema column"):
            validate_welcome(welcome)


class TestRequestValidation:
    def test_known_requests(self):
        assert validate_request({"type": "get_view"}) == ("get_view", {})
        kind, fields = validate_request(
            {
                "type": "smc_batch",
                "session": "s",
                "seq": 1,
                "leases": [[0, 1, 12]],
            }
        )
        leases = fields.pop("leases")
        assert (kind, fields) == ("smc_batch", {"session": "s", "seq": 1})
        assert leases.dtype == np.int64
        assert leases.tolist() == [[0, 1, 12]]

    def test_fields_are_decoded_once(self):
        kind, fields = validate_request(
            {"type": "resolve", "handles": [[3, 0], [1, 7]]}
        )
        assert kind == "resolve"
        assert fields["handles"].dtype == np.int64
        assert fields["handles"].tolist() == [[3, 0], [1, 7]]
        kind, fields = validate_request(
            {
                "type": "fetch_records",
                "names": ["age"],
                "classes": [[4, 2]],
            }
        )
        assert fields["classes"].tolist() == [[4, 2]]
        kind, fields = validate_request(open_request(7001))
        assert fields["peer"] == {"party": "bob", "host": "127.0.0.1", "port": 7001}
        assert [attribute.name for attribute in fields["rule"]] == ["age"]

    @pytest.mark.parametrize(
        "handles",
        [
            [[True, 0]],            # bool class id
            [[0, 1.0]],             # float offset
            [[0, "1"]],             # string offset
            [[0, -1]],              # negative offset
            [[0, 1, 2]],            # three items
            [[2**70, 0]],           # beyond 64 bits
            [[0, 0], [0]],          # one item
            [7],                    # not a pair
            "handles",              # not a list
        ],
    )
    def test_malformed_handles_rejected(self, handles):
        with pytest.raises(WireError):
            validate_request({"type": "resolve", "handles": handles})

    @pytest.mark.parametrize("port", [True, 0, 65536, -1, "7001", 7001.0])
    def test_bad_peer_port_rejected(self, port):
        with pytest.raises(WireError, match="peer port"):
            validate_request(open_request(port))

    def test_peer_is_required(self):
        request = open_request(7001)
        del request["peer"]
        with pytest.raises(WireError, match="missing required field 'peer'"):
            validate_request(request)

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError, match="unknown request type"):
            validate_request({"type": "drop_tables"})

    def test_missing_field_rejected(self):
        with pytest.raises(WireError, match="missing required field"):
            validate_request({"type": "smc_batch", "session": "s", "seq": 1})

    def test_bad_seq_rejected(self):
        with pytest.raises(WireError):
            validate_request(
                {"type": "smc_batch", "session": "s", "seq": 0, "leases": []}
            )


def open_request(port) -> dict:
    """An ``smc_open`` request naming a peer on *port*."""
    return {
        "type": "smc_open",
        "session": "s",
        "rule": {
            "attributes": [
                {
                    "name": "age",
                    "kind": "continuous",
                    "threshold": 0.05,
                    "effective_threshold": 3.6,
                }
            ]
        },
        "peer": {"party": "bob", "host": "127.0.0.1", "port": port},
    }


class TestFaultPlan:
    def test_parse_minimal(self):
        plan = FaultPlan.parse("drop_after=5")
        assert plan == FaultPlan(drop_after=5, times=1)

    def test_parse_with_times(self):
        assert FaultPlan.parse("drop_after=3,times=2") == FaultPlan(3, 2)

    @pytest.mark.parametrize(
        "spec",
        ["", "times=2", "drop_after=", "drop_after=zero", "explode=1",
         "drop_after=0", "drop_after=1,times=0"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    def test_injector_budget(self):
        injector = FaultInjector(FaultPlan(drop_after=3, times=2))
        assert not injector.should_drop(1)
        assert not injector.should_drop(2)
        assert injector.should_drop(3)       # first drop
        assert injector.should_drop(3)       # re-armed: second drop
        assert not injector.should_drop(99)  # budget spent
        assert injector.drops_injected == 2
