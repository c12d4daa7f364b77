"""Loopback end-to-end tests for the networked three-party protocol.

The load-bearing assertions:

- **parity** — a networked run over real sockets produces a
  :class:`~repro.protocol.ProtocolOutcome` *equal* to the in-process
  simulation's, and resolves the same verified matches;
- **resume** — with fault injection killing alice's connections
  mid-SMC, the client reconnects, replays, and the final result is
  unchanged (the server's batch ledger answers replayed batches from
  cache, so invocation counts stay exact);
- **accounting** — real serialized frame bytes land in
  ``net.bytes_on_wire`` / the client transcript, distinct from the
  in-process channel estimate;
- **strictness** — a live server answers malformed frames and version
  skew with error frames and survives garbage.
"""

import json
import socket
import struct

import numpy as np
import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.net import (
    DataHolderServer,
    FaultInjector,
    FaultPlan,
    NetRuntime,
    QueryingPartyClient,
    RemoteParty,
    RemoteSMCBridge,
    parse_remote_spec,
)
from repro.net.client import PartyLink
from repro.net.wire import (
    FRAME_HEADER,
    PROTOCOL_VERSION,
    encode_frame,
    encode_rule,
    hello_message,
)
from repro.obs import Telemetry
from repro.protocol import (
    DataHolder,
    QueryingParty,
    SMCBridge,
    verified_match_handles,
)

QIDS = ADULT_QID_ORDER[:5]
ALLOWANCE = 0.01
#: Small classes, so the allowance spans ten budget leases.
K = 4


@pytest.fixture(scope="module")
def net_fixture():
    catalog = adult_hierarchies()
    rule = MatchRule(MatchAttribute(name, catalog[name], 0.05) for name in QIDS)
    pair = build_linkage_pair(generate_adult(300, seed=11), seed=12)
    return catalog, rule, pair


@pytest.fixture(scope="module")
def reference(net_fixture):
    """The in-process simulation every networked run must reproduce."""
    catalog, rule, pair = net_fixture
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    anonymizer = MaxEntropyTDS(catalog)
    left_view = alice.publish(anonymizer, QIDS, k=K)
    right_view = bob.publish(anonymizer, QIDS, k=K)
    outcome = QueryingParty(rule, allowance=ALLOWANCE).link(
        left_view, right_view, SMCBridge(alice, bob, rule)
    )
    handles = verified_match_handles(outcome, left_view, right_view)
    matches = sorted(
        set(
            zip(
                alice.resolve([pair_[0] for pair_ in handles]),
                bob.resolve([pair_[1] for pair_ in handles]),
            )
        )
    )
    return outcome, matches


@pytest.fixture(scope="module")
def runtime():
    with NetRuntime() as active:
        yield active


def start_servers(runtime, net_fixture, *, alice_fault=None, bob_fault=None):
    catalog, _, pair = net_fixture
    alice = runtime.call(
        DataHolderServer(
            "alice", pair.left, MaxEntropyTDS(catalog), QIDS, K,
            fault=alice_fault,
        ).start()
    )
    bob = runtime.call(
        DataHolderServer(
            "bob", pair.right, MaxEntropyTDS(catalog), QIDS, K,
            fault=bob_fault,
        ).start()
    )
    return alice, bob


def stop_servers(runtime, *servers):
    for server in servers:
        runtime.call(server.stop())


@pytest.fixture(scope="module")
def live_servers(runtime, net_fixture):
    alice, bob = start_servers(runtime, net_fixture)
    yield alice, bob
    stop_servers(runtime, alice, bob)


def run_client(runtime, net_fixture, alice, bob, **kwargs):
    _, rule, __ = net_fixture
    telemetry = kwargs.pop("telemetry", Telemetry())
    client = QueryingPartyClient(
        rule,
        RemoteParty("alice", alice.host, alice.port),
        RemoteParty("bob", bob.host, bob.port),
        allowance=ALLOWANCE,
        telemetry=telemetry,
        runtime=runtime,
        **kwargs,
    )
    return client.run(), telemetry


class TestParity:
    def test_networked_run_is_bit_identical(
        self, runtime, net_fixture, live_servers, reference
    ):
        alice, bob = live_servers
        result, _ = run_client(runtime, net_fixture, alice, bob)
        expected_outcome, expected_matches = reference
        assert result.outcome == expected_outcome
        assert result.verified_matches == expected_matches

    def test_wire_bytes_are_measured(
        self, runtime, net_fixture, live_servers
    ):
        alice, bob = live_servers
        result, telemetry = run_client(runtime, net_fixture, alice, bob)
        # Real frame bytes, not the in-process channel estimate.
        assert result.transcript.bytes_on_wire > 0
        assert result.peer_wire_bytes > 0
        assert result.bytes_on_wire == (
            result.transcript.bytes_on_wire + result.peer_wire_bytes
        )
        counters = telemetry.metrics
        assert (
            counters.counter("net.bytes_on_wire").value
            == result.transcript.bytes_on_wire
        )
        assert counters.counter("net.frames_sent").value > 0
        assert "on wire" in result.transcript.summary()

    def test_querying_party_phases_nest_under_net_smc(
        self, runtime, net_fixture, live_servers
    ):
        """The querying party's phases sit directly under net.linkage and
        the bridge's round trips (net.smc) under its linkage.smc, so no
        span is counted twice; the blocking counters agree with the
        outcome."""
        alice, bob = live_servers
        result, telemetry = run_client(runtime, net_fixture, alice, bob)
        [root] = telemetry.trace()
        assert root["name"] == "net.linkage"
        names = [span["name"] for span in root["children"]]
        assert names.index("blocking") < names.index("select")
        assert names.index("select") < names.index("linkage.smc")
        assert names.index("linkage.smc") < names.index("linkage.leftovers")
        assert "net.smc" not in names
        [smc] = [span for span in root["children"] if span["name"] == "linkage.smc"]
        assert [span["name"] for span in smc["children"]] == ["net.smc"]
        outcome = result.outcome
        counter = telemetry.metrics.counter
        assert (
            counter("blocking.class_pairs").value
            == len(result.left_view.classes) * len(result.right_view.classes)
        )
        assert counter("blocking.matched_class_pairs").value == len(
            outcome.matched_class_pairs
        )
        assert (
            counter("blocking.matched_record_pairs").value
            == outcome.blocked_match_pairs
        )
        assert (
            counter("blocking.nonmatch_record_pairs").value
            == outcome.blocked_nonmatch_pairs
        )
        assert (
            counter("blocking.unknown_record_pairs").value
            == outcome.unknown_pairs
        )
        assert (
            counter("select.pairs_scored").value
            == counter("blocking.unknown_class_pairs").value
            > 0
        )


def test_large_outcome_repr_is_complete(runtime):
    """An outcome of over 1,000 matches prints every handle, and the
    networked outcome prints exactly as the in-process one."""
    catalog = adult_hierarchies()
    rule = MatchRule(MatchAttribute(name, catalog[name], 0.5) for name in QIDS)
    pair = build_linkage_pair(generate_adult(800, seed=11), seed=12)
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    left_view = alice.publish(MaxEntropyTDS(catalog), QIDS, K)
    right_view = bob.publish(MaxEntropyTDS(catalog), QIDS, K)
    expected = QueryingParty(rule, allowance=1.0).link(
        left_view, right_view, SMCBridge(alice, bob, rule)
    )
    assert len(expected.matched_handles) > 1_000
    servers = [
        runtime.call(
            DataHolderServer(name, relation, MaxEntropyTDS(catalog), QIDS, K).start()
        )
        for name, relation in (("alice", pair.left), ("bob", pair.right))
    ]
    try:
        result = QueryingPartyClient(
            rule,
            *(RemoteParty(server.name, server.host, server.port) for server in servers),
            allowance=1.0,
            runtime=runtime,
        ).run()
    finally:
        stop_servers(runtime, *servers)
    text = repr(result.outcome)
    assert "..." not in text
    assert text == repr(expected)
    assert repr(expected.matched_handles.tolist()) in text
    assert result.outcome == expected


class TestChannelEstimate:
    def test_paillier_oracle_reports_estimate_beside_measured_bytes(
        self, runtime, net_fixture, reference
    ):
        """Satellite: channel.bytes_sent (estimate) vs net.* (measured).

        With the real Paillier oracle on the bridge holder, the client
        mirrors the server's in-process channel *estimate* next to the
        measured frame bytes — and the outcome still matches the
        reference (the crypto is exact, only the invoice changes).
        """
        import random

        from repro.crypto.smc.oracle import PaillierSMCOracle

        catalog, _, pair = net_fixture

        def paillier_factory(rule, schema):
            return PaillierSMCOracle(
                rule, schema, key_bits=256, rng=random.Random(7)
            )

        alice = runtime.call(
            DataHolderServer(
                "alice", pair.left, MaxEntropyTDS(catalog), QIDS, K,
                oracle_factory=paillier_factory,
            ).start()
        )
        bob = runtime.call(
            DataHolderServer(
                "bob", pair.right, MaxEntropyTDS(catalog), QIDS, K
            ).start()
        )
        try:
            result, telemetry = run_client(runtime, net_fixture, alice, bob)
        finally:
            stop_servers(runtime, alice, bob)
        expected_outcome, expected_matches = reference
        assert result.outcome == expected_outcome
        assert result.verified_matches == expected_matches
        assert result.channel_bytes > 0, "no in-process channel estimate"
        assert result.bytes_on_wire > 0
        counters = telemetry.metrics
        assert (
            counters.counter("channel.bytes_sent").value
            == result.channel_bytes
        )


class TestFaultResume:
    def test_drop_mid_smc_resumes_with_identical_result(
        self, runtime, net_fixture, reference
    ):
        """Kill alice's connection mid-SMC; the run must still agree."""
        fault = FaultInjector(FaultPlan(drop_after=6, times=2))
        alice, bob = start_servers(runtime, net_fixture, alice_fault=fault)
        try:
            # Two leases per frame: five smc_batch frames, so both drops
            # land on batch replies, and the first one is replayed.
            result, telemetry = run_client(
                runtime, net_fixture, alice, bob, batch_size=2
            )
        finally:
            stop_servers(runtime, alice, bob)
        expected_outcome, expected_matches = reference
        assert fault.drops_injected == 2, "the fault never fired"
        assert telemetry.metrics.counter("net.reconnects").value >= 1
        assert result.reconnects >= 1
        # Identical outcome implies exact invocation counts too: a server
        # that re-ran a replayed batch would inflate smc_invocations.
        assert result.outcome == expected_outcome
        assert result.verified_matches == expected_matches

    def test_drop_on_close_and_resolve_replies_still_agrees(
        self, runtime, net_fixture, reference
    ):
        """Drops can also eat the smc_close reply.

        With five leases per frame the SMC phase is two frames, so
        ``drop_after=6`` lands the drop on the ``smc_close`` reply; the
        ``resolve`` request that follows finds the connection dead and
        recovers through the idempotent-retry path rather than the batch
        ledger.
        """
        fault = FaultInjector(FaultPlan(drop_after=6, times=2))
        alice, bob = start_servers(runtime, net_fixture, alice_fault=fault)
        try:
            result, telemetry = run_client(
                runtime, net_fixture, alice, bob, batch_size=5
            )
        finally:
            stop_servers(runtime, alice, bob)
        expected_outcome, expected_matches = reference
        assert fault.drops_injected >= 1, "the fault never fired"
        assert telemetry.metrics.counter("net.reconnects").value >= 1
        assert result.outcome == expected_outcome
        assert result.verified_matches == expected_matches

    def test_fault_plan_round_trip_from_env(self, monkeypatch):
        from repro.net.faults import FAULT_ENV, injector_from_env

        monkeypatch.setenv(FAULT_ENV, "drop_after=4,times=3")
        injector = injector_from_env()
        assert injector.plan == FaultPlan(drop_after=4, times=3)
        monkeypatch.delenv(FAULT_ENV)
        assert injector_from_env() is None


def raw_exchange(server, frames, *, hello_first=True):
    """Speak raw frames to a live server; returns decoded replies."""
    replies = []
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.settimeout(10)
        if hello_first:
            frames = [encode_frame(hello_message("query", "probe"))] + frames
        for frame in frames:
            sock.sendall(frame)
            header = sock.recv(FRAME_HEADER.size, socket.MSG_WAITALL)
            if len(header) < FRAME_HEADER.size:
                replies.append(None)  # connection closed on us
                break
            (length,) = FRAME_HEADER.unpack(header)
            payload = b""
            while len(payload) < length:
                chunk = sock.recv(length - len(payload))
                if not chunk:
                    break
                payload += chunk
            replies.append(json.loads(payload.decode()))
    return replies


class TestLiveServerStrictness:
    def test_version_mismatch_rejected_with_code(self, live_servers):
        alice, _ = live_servers
        hello = hello_message("query", "time-traveler")
        hello["version"] = PROTOCOL_VERSION + 1
        replies = raw_exchange(alice, [encode_frame(hello)], hello_first=False)
        assert replies[0]["type"] == "error"
        assert replies[0]["code"] == "version_mismatch"

    def test_unknown_request_answered_not_crashed(self, live_servers):
        alice, _ = live_servers
        replies = raw_exchange(
            alice, [encode_frame({"type": "drop_tables"})]
        )
        assert replies[1]["type"] == "error"
        assert replies[1]["code"] == "bad_frame"

    def test_garbage_payload_survived(self, live_servers):
        alice, _ = live_servers
        garbage = FRAME_HEADER.pack(9) + b"\xff" * 9
        replies = raw_exchange(alice, [garbage])
        assert replies[1]["type"] == "error"
        assert replies[1]["code"] == "bad_frame"
        # ...and the server still serves fresh connections afterwards.
        replies = raw_exchange(alice, [encode_frame({"type": "get_view"})])
        assert replies[1]["type"] == "view"

    def test_querying_party_cannot_fetch_raw_records(self, live_servers):
        """The privacy boundary: role=query gets no raw values, ever."""
        alice, _ = live_servers
        request = {
            "type": "fetch_records",
            "names": [QIDS[0]],
            "classes": [[0, 1]],
        }
        replies = raw_exchange(alice, [encode_frame(request)])
        assert replies[1]["type"] == "error"
        assert replies[1]["code"] == "forbidden"

    def test_oversized_header_drops_connection(self, live_servers):
        alice, _ = live_servers
        huge = struct.pack(">I", 2**31)
        replies = raw_exchange(alice, [huge])
        assert replies[1]["type"] == "error"
        assert replies[1]["code"] == "bad_frame"

    @pytest.mark.parametrize(
        "handles",
        [[[True, 0]], [[0, 1.5]], [[0, "1"]], [[0, -1]], [[0, 1, 2]], [[2**70, 0]]],
        ids=["bool", "float", "str", "negative", "three-items", "2**70"],
    )
    def test_malformed_resolve_handles_answered(self, live_servers, handles):
        alice, _ = live_servers
        request = {"type": "resolve", "handles": handles}
        replies = raw_exchange(
            alice, [encode_frame(request), encode_frame({"type": "get_view"})]
        )
        assert replies[1]["type"] == "error"
        assert replies[1]["code"] == "bad_frame"
        # The connection survives the bad frame.
        assert replies[2]["type"] == "view"

    def test_unknown_resolve_handle_answered(self, live_servers):
        alice, _ = live_servers
        request = {"type": "resolve", "handles": [[0, 0], [10**6, 0]]}
        [_, reply] = raw_exchange(alice, [encode_frame(request)])
        assert reply["code"] == "protocol"
        assert "(1000000, 0)" in reply["message"]

    def test_reopening_a_session_with_another_rule_refused(
        self, live_servers, net_fixture
    ):
        alice, bob = live_servers
        _, rule, __ = net_fixture
        request = {
            "type": "smc_open",
            "session": "rule-change",
            "rule": encode_rule(rule),
            "peer": {"party": "bob", "host": bob.host, "port": bob.port},
        }
        looser = dict(request, rule=encode_rule(rule.with_thresholds(0.5)))
        replies = raw_exchange(
            alice, [encode_frame(request), encode_frame(request), encode_frame(looser)]
        )
        assert [reply.get("resumed") for reply in replies[1:3]] == [False, True]
        assert replies[3]["code"] == "bad_session"
        assert "different rule" in replies[3]["message"]

    @pytest.mark.parametrize(
        "lease, code, message",
        [
            ([10**6, 0, 1], "protocol", "holder 'alice' has no class 1000000"),
            ([0, 10**6, 1], "protocol", "holder 'bob' has no class 1000000"),
            ([0, 0, 10**6], "protocol", "lease take 1000000 is outside 1.."),
            ([-1, 0, 1], "bad_frame", "leases must be >= 0"),
            ([0, 0, 0], "bad_frame", "lease take must be >= 1"),
        ],
        ids=["unknown-left", "unknown-right", "take-above", "negative", "take-0"],
    )
    def test_bad_lease_answered_before_any_compare(
        self, live_servers, net_fixture, lease, code, message
    ):
        """A batch naming no class pair, or a take outside it, compares
        nothing: the session's bill stays at zero."""
        alice, bob = live_servers
        _, rule, __ = net_fixture
        session = f"bad-lease-{lease}"
        frames = [
            {
                "type": "smc_open",
                "session": session,
                "rule": encode_rule(rule),
                "peer": {"party": "bob", "host": bob.host, "port": bob.port},
            },
            {"type": "smc_batch", "session": session, "seq": 1, "leases": [[0, 0, 1], lease]},
            {"type": "smc_close", "session": session},
        ]
        replies = raw_exchange(alice, [encode_frame(frame) for frame in frames])
        assert replies[2]["code"] == code
        assert message in replies[2]["message"]
        assert replies[3]["invocations"] == 0

    @pytest.mark.parametrize("port", [True, 0], ids=["bool", "zero"])
    def test_bad_peer_port_answered(self, live_servers, net_fixture, port):
        alice, _ = live_servers
        _, rule, __ = net_fixture
        request = {
            "type": "smc_open",
            "session": f"bad-port-{port}",
            "rule": encode_rule(rule),
            "peer": {"party": "bob", "host": "127.0.0.1", "port": port},
        }
        [_, reply] = raw_exchange(alice, [encode_frame(request)])
        assert reply["code"] == "bad_frame"
        assert "peer port" in reply["message"]


class TestRemoteBridge:
    def test_lease_naming_an_unpublished_class_sends_no_frame(
        self, runtime, net_fixture, live_servers
    ):
        """Every lease is checked against the published views before the
        first batch goes out: an unknown class is refused off the wire."""
        alice, bob = live_servers
        catalog, rule, pair = net_fixture
        left_view, right_view = (
            DataHolder(name, relation).publish(MaxEntropyTDS(catalog), QIDS, k=K)
            for name, relation in (("alice", pair.left), ("bob", pair.right))
        )
        telemetry = Telemetry()
        link = PartyLink(
            RemoteParty("alice", alice.host, alice.port), runtime, telemetry=telemetry
        ).connect()
        try:
            bridge = RemoteSMCBridge(
                link,
                RemoteParty("bob", bob.host, bob.port),
                rule,
                left_view,
                right_view,
                batch_size=1,
            ).open()
            sent = telemetry.counter("net.frames_sent").value
            missing = len(right_view.classes)
            with pytest.raises(
                ProtocolError, match=rf"^'bob' publishes no class {missing}$"
            ):
                bridge.compare_many(np.array([[0, 0, 1], [0, missing, 1]]))
            assert telemetry.counter("net.frames_sent").value == sent
            assert bridge.invocations == 0
            bridge.close()
        finally:
            link.close()


class TestRemoteSpec:
    def test_parse_both_parties(self):
        parties = parse_remote_spec("alice=10.0.0.1:7001,bob=10.0.0.2:7002")
        assert parties["alice"] == RemoteParty("alice", "10.0.0.1", 7001)
        assert parties["bob"] == RemoteParty("bob", "10.0.0.2", 7002)

    @pytest.mark.parametrize(
        "spec",
        [
            "alice=10.0.0.1:7001",           # bob missing
            "alice=:7001,bob=h:7002",        # empty host
            "alice=h:seven,bob=h:7002",      # bad port
            "alice,bob",                     # no addresses
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_remote_spec(spec)
