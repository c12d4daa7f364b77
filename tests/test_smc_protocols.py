"""Tests for the three-party SMC protocols."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.smc.channel import ALICE, BOB, QUERY, SMCSession, Transcript
from repro.crypto.smc.comparison import (
    default_magnitude_bound,
    finish_within_threshold,
    secure_within_threshold,
)
from repro.crypto.smc.euclidean import (
    alice_encrypts,
    finish_squared_distance,
    secure_squared_distance,
)
from repro.crypto.smc.hamming import (
    alice_encrypts_hash,
    alice_sends_hash,
    bob_blinds_difference,
    finish_equality,
    hash_value,
    secure_equality,
    secure_hamming_distance,
)
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def key_pair():
    return PaillierKeyPair.generate(256, random.Random(2024))


@pytest.fixture
def session(key_pair):
    return SMCSession(key_pair, rng=55)


class TestTranscript:
    def test_message_accounting(self):
        transcript = Transcript()
        transcript.record_message(ALICE, BOB, 100)
        transcript.record_message(BOB, QUERY, 50)
        transcript.record_message(ALICE, ALICE, 999)  # local, not counted
        assert transcript.messages == 2
        assert transcript.bytes_sent == 150

    def test_operation_counters(self):
        transcript = Transcript()
        transcript.record_operation("encrypt", 2)
        transcript.record_operation("encrypt")
        assert transcript.operations["encrypt"] == 3

    def test_merge(self):
        first = Transcript(messages=1, bytes_sent=10)
        first.record_operation("encrypt")
        second = Transcript(messages=2, bytes_sent=20)
        second.record_operation("encrypt", 4)
        merged = first.merged_with(second)
        assert merged.messages == 3
        assert merged.bytes_sent == 30
        assert merged.operations["encrypt"] == 5

    def test_summary_readable(self, session):
        secure_squared_distance(session, 1, 2)
        text = session.transcript.summary()
        assert "messages" in text and "bytes" in text


class TestSecureSquaredDistance:
    def test_known_values(self, session):
        assert secure_squared_distance(session, 35, 28) == pytest.approx(49)
        assert secure_squared_distance(session, 28, 35) == pytest.approx(49)
        assert secure_squared_distance(session, 40, 40) == pytest.approx(0)

    def test_fractional_values(self, session):
        assert secure_squared_distance(session, 5.5, 2.0) == pytest.approx(12.25)

    def test_negative_values(self, session):
        assert secure_squared_distance(session, -3, 4) == pytest.approx(49)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_matches_plaintext(self, a, b):
        keys = PaillierKeyPair.generate(256, random.Random(99))
        session = SMCSession(keys, rng=a * 1000 + b)
        assert secure_squared_distance(session, a, b) == pytest.approx(
            (a - b) ** 2
        )

    def test_transcript_per_invocation(self, key_pair):
        session = SMCSession(key_pair, rng=1)
        base_messages = session.transcript.messages
        secure_squared_distance(session, 1, 2)
        # 1 Alice->Bob transfer (two ciphertexts batched) + 1 Bob->query.
        assert session.transcript.messages == base_messages + 2
        assert session.transcript.operations["encrypt"] == 2
        assert session.transcript.operations["rerandomize"] == 1
        assert session.transcript.operations["decrypt"] == 1


class TestSecureEquality:
    def test_equal_strings(self, session):
        assert secure_equality(session, "Masters", "Masters")

    def test_unequal_strings(self, session):
        assert not secure_equality(session, "Masters", "11th")

    def test_hamming_wrapper(self, session):
        assert secure_hamming_distance(session, "a", "a") == 0
        assert secure_hamming_distance(session, "a", "b") == 1

    def test_arbitrary_values(self, session):
        assert secure_equality(session, ("x", 1), ("x", 1))
        assert not secure_equality(session, ("x", 1), ("x", 2))

    def test_blinded_difference_is_the_scaled_ciphertext(self, key_pair):
        """Over Bob's table, the blinded difference is the ciphertext
        ``((E(h_a) - h_b) * rho).rerandomize(rng)`` computed from the same
        seeded session, and leaves the RNG in the same state."""
        key = key_pair.public_key
        session = SMCSession(key_pair, rng=31)
        reference = SMCSession(key_pair, rng=31)
        alice_hash = alice_sends_hash(session, "Masters")
        reference_hash = alice_encrypts_hash(reference, "Masters")
        for bob_value in ("9th", "Masters", "11th"):
            blinded = bob_blinds_difference(session, alice_hash, bob_value)
            rho = reference.rng.randrange(1, key.n)
            expected = (
                (reference_hash - hash_value(bob_value, key.n)) * rho
            ).rerandomize(reference.rng)
            assert blinded.ciphertext == expected.ciphertext
            assert session.rng.getstate() == reference.rng.getstate()
            assert key_pair.private_key.decrypts_to_zero(blinded) == (
                bob_value == "Masters"
            )

    def test_hash_value_in_range(self, key_pair):
        modulus = key_pair.public_key.n
        for value in ("a", "b", ("x", 1), 42):
            assert 0 <= hash_value(value, modulus) < modulus


class TestSecureWithinThreshold:
    def test_paper_example(self, session):
        """The Section III example: theta * normFactor = 19.6 on Work-Hrs."""
        assert secure_within_threshold(session, 35, 36, 19.6)
        assert secure_within_threshold(session, 35, 54.0, 19.6)
        assert not secure_within_threshold(session, 35, 55.0, 19.6)

    def test_boundary_is_inclusive(self, session):
        assert secure_within_threshold(session, 10, 30, 20.0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 100), st.integers(0, 100),
        st.integers(1, 60),
    )
    def test_matches_plaintext_rule(self, a, b, threshold):
        keys = PaillierKeyPair.generate(256, random.Random(7))
        session = SMCSession(keys, rng=a * 7919 + b)
        expected = abs(a - b) <= threshold
        assert secure_within_threshold(session, a, b, threshold) == expected

    def test_query_party_sees_only_blinded_margin(self, key_pair):
        """Two runs with the same inputs decrypt to different magnitudes."""
        from repro.crypto.smc.euclidean import alice_encrypts, bob_combines

        observed = []
        for seed in (1, 2):
            session = SMCSession(key_pair, rng=seed)
            alice_square, alice_minus_twice = alice_encrypts(session, 10.0)
            distance = bob_combines(
                session, alice_square, alice_minus_twice, 50.0
            )
            margin = distance - session.codec.encode_square_threshold(19.6**2)
            rho = session.random_blinder(10**12)
            blinded = (margin * rho).rerandomize(session.rng)
            observed.append(session.private_key.decrypt_signed(blinded))
        assert observed[0] != observed[1]
        assert all(value > 0 for value in observed)  # sign is preserved

    def test_key_too_small_for_the_bound_refuses_to_blind(self):
        """A blinder that can only be 1 would hand the querying party the
        unblinded margin d² − t²; the comparison refuses instead."""
        keys = PaillierKeyPair.generate(128, random.Random(3))
        session = SMCSession(keys, rng=1)
        with pytest.raises(CryptoError, match="no room to blind"):
            secure_within_threshold(session, 3e14, 0.0, 1.0)
        assert secure_within_threshold(
            SMCSession(keys, rng=1), 1e14, 0.0, 1.0
        ) is False

    def test_blinder_range_never_collapses(self, key_pair):
        session = SMCSession(key_pair, rng=4)
        half = key_pair.public_key.n // 2
        with pytest.raises(CryptoError):
            session.random_blinder(half // 2)
        assert session.random_blinder(half // 3) in (1, 2)


class _RecordingKey:
    """The querying party's private key, keeping every ciphertext it sees."""

    def __init__(self, key):
        self.key = key
        self.seen = []

    def decrypt(self, encrypted):
        self.seen.append(encrypted.ciphertext)
        return self.key.decrypt(encrypted)

    def decrypt_signed(self, encrypted):
        self.seen.append(encrypted.ciphertext)
        return self.key.decrypt_signed(encrypted)

    def decrypts_to_zero(self, encrypted):
        self.seen.append(encrypted.ciphertext)
        zero = self.key.decrypts_to_zero(encrypted)
        assert zero == (self.key.decrypt(encrypted) == 0)
        return zero

    def decrypt_signed_bounded(self, encrypted, bound):
        self.seen.append(encrypted.ciphertext)
        signed = self.key.decrypt_signed_bounded(encrypted, bound)
        assert signed == self.key.decrypt_signed(encrypted)
        assert abs(signed) <= bound
        return signed


class TestReusedAliceCiphertexts:
    """Alice's step once, Bob's steps per record: same answers, fresh
    ciphertexts for the querying party, one re-randomization each."""

    def test_answers_match_the_full_protocols(self, key_pair):
        session = SMCSession(key_pair, rng=8)
        alice = alice_encrypts(session, 35.0)
        alice_hash = alice_sends_hash(session, "Masters")
        for bob_value in (30.0, 35.0, 36.0, 54.0, 55.0):
            assert finish_squared_distance(
                session, alice, bob_value
            ) == pytest.approx((35.0 - bob_value) ** 2)
            assert finish_within_threshold(
                session,
                alice,
                bob_value,
                19.6,
                default_magnitude_bound(35.0, bob_value, 19.6),
            ) == secure_within_threshold(session, 35.0, bob_value, 19.6)
        for bob_value in ("Masters", "9th"):
            assert finish_equality(session, alice_hash, bob_value) == (
                bob_value == "Masters"
            )

    def test_query_party_never_sees_a_ciphertext_twice(self, key_pair):
        session = SMCSession(key_pair, rng=9)
        recording = session.private_key = _RecordingKey(session.private_key)
        alice = alice_encrypts(session, 40.0)
        alice_hash = alice_sends_hash(session, "x")
        before = session.transcript.operations.copy()
        for _ in range(3):
            finish_squared_distance(session, alice, 40.0)
            finish_within_threshold(session, alice, 40.0, 1.0, 6400.0)
            finish_equality(session, alice_hash, "x")
        operations = session.transcript.operations - before
        assert len(set(recording.seen)) == len(recording.seen) == 9
        assert operations["encrypt"] == 0
        assert operations["rerandomize"] == operations["decrypt"] == 9

    def test_within_threshold_rerandomizes_once(self, session):
        secure_within_threshold(session, 35, 36, 19.6)
        operations = session.transcript.operations
        assert operations["encrypt"] == 2
        assert operations["rerandomize"] == operations["decrypt"] == 1
