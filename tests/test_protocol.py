"""Tests for the explicit three-party protocol simulation."""

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc.oracle import PaillierSMCOracle
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.heuristics import MinAvgFirst
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.strategies import LearnedClassifier, MaximizeRecall
from repro.protocol import DataHolder, Lease, QueryingParty, SMCBridge

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def parties(adult_pair, adult_hierarchy_catalog):
    alice = DataHolder("alice", adult_pair.left)
    bob = DataHolder("bob", adult_pair.right)
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left_view = alice.publish(anonymizer, QIDS, k=16)
    right_view = bob.publish(anonymizer, QIDS, k=16)
    return alice, bob, left_view, right_view


class TestPublishedView:
    def test_view_covers_all_records(self, parties, adult_pair):
        _, __, left_view, right_view = parties
        assert left_view.record_count == len(adult_pair.left)
        assert right_view.record_count == len(adult_pair.right)

    def test_view_has_no_raw_records(self, parties):
        """The public artifact is sequences and sizes, nothing more."""
        _, __, left_view, ___ = parties
        for published in left_view.classes:
            assert isinstance(published.size, int)
            assert isinstance(published.sequence, tuple)
        assert not hasattr(left_view, "source")

    def test_holder_relation_is_private(self, parties):
        alice, *_ = parties
        assert not hasattr(alice, "relation")
        assert not hasattr(alice, "_relation")


class TestBridge:
    def test_compare_by_lease(self, parties, adult_rule, adult_pair):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        first_left = left_view.classes[0]
        first_right = right_view.classes[0]
        take = first_left.size * first_right.size
        [offsets] = bridge.compare_many(
            [Lease(first_left.class_id, first_right.class_id, take)]
        )
        assert bridge.invocations == take
        assert offsets == sorted(set(offsets))
        truth = set(
            GroundTruth(
                adult_rule, adult_pair.left, adult_pair.right
            ).iter_matches()
        )
        left_indices = alice.resolve(
            [(first_left.class_id, offset) for offset in range(first_left.size)]
        )
        right_indices = bob.resolve(
            [(first_right.class_id, offset) for offset in range(first_right.size)]
        )
        expected = [
            (left_offset, right_offset)
            for left_offset, left_index in enumerate(left_indices)
            for right_offset, right_index in enumerate(right_indices)
            if (left_index, right_index) in truth
        ]
        assert offsets == expected

    def test_bad_handle_rejected(self, parties, adult_rule):
        alice, bob, left_view, _ = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        with pytest.raises(ProtocolError):
            bridge.compare_many([Lease(999_999, 0, 1)])
        with pytest.raises(ProtocolError):
            bridge.compare_many([Lease(0, 0, 1), Lease(0, -1, 1)])
        assert bridge.invocations == 0
        with pytest.raises(ProtocolError):
            alice.resolve([(999_999, 0)])
        with pytest.raises(ProtocolError):
            alice.resolve([(0, left_view.classes[0].size)])

    def test_take_larger_than_class_pair_rejected(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        size = left_view.classes[0].size * right_view.classes[0].size
        for take in (size + 1, 0):
            with pytest.raises(ProtocolError):
                bridge.compare_many([Lease(0, 0, 1), Lease(0, 0, take)])
        assert bridge.invocations == 0

    def test_schema_mismatch_rejected(
        self, parties, adult_rule, toy_relations
    ):
        alice, *_ = parties
        toy_holder = DataHolder("carol", toy_relations[0])
        with pytest.raises(ConfigurationError):
            SMCBridge(alice, toy_holder, adult_rule)


class TestQueryingParty:
    def test_agrees_with_library_pipeline(
        self, parties, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """The explicit protocol reproduces HybridLinkage's outcome."""
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule, allowance=0.01)
        outcome = party.link(left_view, right_view, bridge)

        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        left = anonymizer.anonymize(adult_pair.left, QIDS, 16)
        right = anonymizer.anonymize(adult_pair.right, QIDS, 16)
        library = HybridLinkage(
            LinkageConfig(adult_rule, allowance=0.01)
        ).run(left, right)

        assert outcome.total_pairs == library.total_pairs
        assert outcome.blocked_match_pairs == library.blocked_match_pairs
        assert (
            outcome.blocked_nonmatch_pairs == library.blocking.nonmatch_pairs
        )
        assert outcome.unknown_pairs == library.blocking.unknown_pairs
        assert outcome.smc_invocations == library.smc_invocations
        assert len(outcome.matched_handles) == library.smc_match_count

    def test_matched_handles_resolve_to_true_matches(
        self, parties, adult_rule, adult_pair
    ):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule, allowance=0.02)
        outcome = party.link(left_view, right_view, bridge)
        left_handles = [pair[0] for pair in outcome.matched_handles]
        right_handles = [pair[1] for pair in outcome.matched_handles]
        left_indices = alice.resolve(left_handles)
        right_indices = bob.resolve(right_handles)
        truth = set(
            GroundTruth(
                adult_rule, adult_pair.left, adult_pair.right
            ).iter_matches()
        )
        for pair in zip(left_indices, right_indices):
            assert pair in truth

    def test_pair_accounting(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule, allowance=0.005)
        outcome = party.link(left_view, right_view, bridge)
        assert (
            outcome.blocked_match_pairs
            + outcome.blocked_nonmatch_pairs
            + outcome.smc_invocations
            + outcome.leftover_pairs
            == outcome.total_pairs
        )

    def test_reused_bridge_reports_each_calls_invocations(
        self, parties, adult_rule
    ):
        """Two links over one bridge each report what they spent."""
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule, allowance=0.01)
        first = party.link(left_view, right_view, bridge)
        second = party.link(left_view, right_view, bridge)
        assert first.smc_invocations > 0
        assert second.smc_invocations == first.smc_invocations
        assert bridge.invocations == 2 * first.smc_invocations
        assert second.matched_handles == first.matched_handles

    def test_misbilling_bridge_rejected(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        compare_many = bridge.compare_many

        def overbilling(leases):
            results = compare_many(leases)
            bridge.oracle.invocations += 1
            return results

        bridge.compare_many = overbilling
        party = QueryingParty(adult_rule, allowance=0.01)
        with pytest.raises(ProtocolError, match="billed"):
            party.link(left_view, right_view, bridge)

    def test_claim_leftovers_mode(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(
            adult_rule, allowance=0.0, strategy=MaximizeRecall()
        )
        outcome = party.link(left_view, right_view, bridge)
        assert outcome.claimed_class_pairs
        assert outcome.smc_invocations == 0

    def test_rule_attribute_missing_from_view(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        from dataclasses import replace

        narrowed = replace(left_view, qids=left_view.qids[:2])
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule)
        with pytest.raises(ConfigurationError):
            party.link(narrowed, right_view, bridge)

    def test_bad_allowance(self, adult_rule):
        with pytest.raises(ConfigurationError):
            QueryingParty(adult_rule, allowance=2.0)

    def test_learned_classifier_requires_random_selection(self, adult_rule):
        """The querying party refuses what LinkageConfig refuses."""
        settings = {"strategy": LearnedClassifier(), "heuristic": MinAvgFirst()}
        with pytest.raises(ConfigurationError) as library:
            LinkageConfig(adult_rule, **settings)
        with pytest.raises(ConfigurationError) as protocol:
            QueryingParty(adult_rule, **settings)
        assert str(protocol.value) == str(library.value)

    def test_with_real_paillier_backend(self, adult_pair, adult_hierarchy_catalog, adult_rule):
        """A tiny end-to-end run over the real crypto stack."""
        left = adult_pair.left.take(range(24))
        right = adult_pair.right.take(range(24))
        alice = DataHolder("alice", left)
        bob = DataHolder("bob", right)
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        left_view = alice.publish(anonymizer, QIDS, k=4)
        right_view = bob.publish(anonymizer, QIDS, k=4)

        def factory(rule, schema):
            return PaillierSMCOracle(rule, schema, key_bits=256, rng=9)

        bridge = SMCBridge(alice, bob, adult_rule, oracle_factory=factory)
        party = QueryingParty(adult_rule, allowance=0.05)
        outcome = party.link(left_view, right_view, bridge)
        truth = set(GroundTruth(adult_rule, left, right).iter_matches())
        resolved = set(
            zip(
                alice.resolve([pair[0] for pair in outcome.matched_handles]),
                bob.resolve([pair[1] for pair in outcome.matched_handles]),
            )
        )
        assert resolved <= truth
