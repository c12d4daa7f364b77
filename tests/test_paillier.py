"""Tests for the Paillier cryptosystem, including hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import paillier
from repro.crypto.paillier import RANDOMIZER_BITS, PaillierKeyPair
from repro.crypto.primes import generate_prime
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keys():
    return PaillierKeyPair.generate(256, random.Random(1234))


@pytest.fixture(scope="module")
def rng():
    return random.Random(77)


class TestKeyGeneration:
    def test_modulus_size(self, keys):
        assert keys.public_key.bits == 256

    def test_ciphertext_wire_size(self, keys):
        assert keys.public_key.ciphertext_bytes == pytest.approx(64, abs=1)

    def test_seeded_modulus_is_pinned(self, keys):
        """The randomizer base is drawn after the primes: a seed's modulus
        is the one it gave before keys published ``h_s``."""
        assert keys.public_key.n == (
            0xA45FC402C70CC3B960A1EDCC2EFE596FB8C8780776E8D8B545BD8F6862EEAB2D
        )

    def test_randomizer_base_drawn_after_the_primes(self, monkeypatch):
        """Until the primes are accepted, only prime generation draws."""

        class CountingRandom(random.Random):
            draws = 0

            def getrandbits(self, k):
                self.draws += 1
                return super().getrandbits(k)

        rng = CountingRandom(1234)
        spans = []

        def counted_prime(bits, prime_rng):
            start = prime_rng.draws
            prime = generate_prime(bits, prime_rng)
            spans.append((start, prime_rng.draws))
            return prime

        monkeypatch.setattr(paillier, "generate_prime", counted_prime)
        PaillierKeyPair.generate(256, rng)
        assert spans[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert rng.draws > spans[-1][1]

    def test_independent_keys_differ(self):
        first = PaillierKeyPair.generate(128, random.Random(1))
        second = PaillierKeyPair.generate(128, random.Random(2))
        assert first.public_key.n != second.public_key.n


class TestEncryptDecrypt:
    @settings(max_examples=50)
    @given(st.integers(0, 2**64))
    def test_round_trip(self, plaintext):
        keys = PaillierKeyPair.generate(160, random.Random(5))
        rng = random.Random(plaintext)
        ciphertext = keys.public_key.encrypt(plaintext, rng)
        assert keys.private_key.decrypt(ciphertext) == plaintext

    def test_out_of_range_plaintext(self, keys, rng):
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(keys.public_key.n, rng)
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(-1, rng)

    def test_probabilistic_encryption(self, keys, rng):
        first = keys.public_key.encrypt(42, rng)
        second = keys.public_key.encrypt(42, rng)
        assert first.ciphertext != second.ciphertext
        assert keys.private_key.decrypt(first) == keys.private_key.decrypt(second)

    def test_signed_round_trip(self, keys, rng):
        for value in (-12345, -1, 0, 1, 99999):
            ciphertext = keys.public_key.encrypt_signed(value, rng)
            assert keys.private_key.decrypt_signed(ciphertext) == value

    def test_foreign_key_rejected(self, keys, rng):
        other = PaillierKeyPair.generate(160, random.Random(6))
        ciphertext = other.public_key.encrypt(1, rng)
        with pytest.raises(CryptoError):
            keys.private_key.decrypt(ciphertext)


class TestHomomorphism:
    @settings(max_examples=40)
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_addition(self, m1, m2):
        keys = PaillierKeyPair.generate(160, random.Random(7))
        rng = random.Random(m1 ^ m2)
        total = keys.public_key.encrypt(m1, rng) + keys.public_key.encrypt(m2, rng)
        assert keys.private_key.decrypt(total) == m1 + m2

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.integers(0, 2**10))
    def test_scalar_multiplication(self, m, k):
        keys = PaillierKeyPair.generate(160, random.Random(8))
        rng = random.Random(m + k)
        scaled = keys.public_key.encrypt(m, rng) * k
        assert keys.private_key.decrypt(scaled) == m * k

    def test_plaintext_addition(self, keys, rng):
        ciphertext = keys.public_key.encrypt(10, rng) + 32
        assert keys.private_key.decrypt(ciphertext) == 42

    def test_subtraction_and_negation(self, keys, rng):
        a = keys.public_key.encrypt(50, rng)
        b = keys.public_key.encrypt(8, rng)
        assert keys.private_key.decrypt(a - b) == 42
        assert keys.private_key.decrypt_signed(-(a - b)) == -42
        assert keys.private_key.decrypt_signed(b - a) == -42

    def test_mixed_expression_from_the_paper(self, keys, rng):
        """E(r^2) +h (E(-2r) xh s) +h E(s^2) decrypts to (r - s)^2."""
        r, s = 35, 28
        expression = (
            keys.public_key.encrypt(r * r, rng)
            + keys.public_key.encrypt_signed(-2 * r, rng) * s
            + (s * s)
        )
        assert keys.private_key.decrypt(expression) == (r - s) ** 2

    def test_add_under_different_keys_rejected(self, keys, rng):
        other = PaillierKeyPair.generate(160, random.Random(9))
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(1, rng) + other.public_key.encrypt(1, rng)

    def test_rerandomize_preserves_plaintext(self, keys, rng):
        original = keys.public_key.encrypt(123, rng)
        refreshed = original.rerandomize(rng)
        assert refreshed.ciphertext != original.ciphertext
        assert keys.private_key.decrypt(refreshed) == 123


class TestCRTDecryption:
    def test_agrees_with_classic_path(self, keys, rng):
        """CRT and textbook decryption give identical plaintexts."""
        from repro.crypto.paillier import PaillierPrivateKey

        classic = PaillierPrivateKey(
            keys.public_key, keys.private_key.lam, keys.private_key.mu
        )
        assert keys.private_key.p is not None  # generate() stores factors
        for value in (0, 1, 42, 2**40, keys.public_key.n - 1):
            ciphertext = keys.public_key.encrypt(value, rng)
            assert keys.private_key.decrypt(ciphertext) == classic.decrypt(
                ciphertext
            )

    def test_signed_values_through_crt(self, keys, rng):
        for value in (-99999, -1, 0, 7):
            ciphertext = keys.public_key.encrypt_signed(value, rng)
            assert keys.private_key.decrypt_signed(ciphertext) == value

    def test_key_without_factors_still_works(self, keys, rng):
        from repro.crypto.paillier import PaillierPrivateKey

        classic = PaillierPrivateKey(
            keys.public_key, keys.private_key.lam, keys.private_key.mu
        )
        ciphertext = keys.public_key.encrypt(314159, rng)
        assert classic.decrypt(ciphertext) == 314159


class TestRandomizer:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([0, 1, 2**RANDOMIZER_BITS - 1]),
            st.integers(0, 2**RANDOMIZER_BITS - 1),
        )
    )
    def test_table_matches_pow(self, keys, exponent):
        key = keys.public_key
        assert key._power_of_h_s(exponent) == pow(key.h_s, exponent, key.n_squared)

    def test_randomizers_are_nth_residues(self, keys, rng):
        """An n-th residue mod n² has order dividing λ."""
        key, lam = keys.public_key, keys.private_key.lam
        assert pow(key.h_s, lam, key.n_squared) == 1
        for _ in range(20):
            assert pow(key.randomizer(rng), lam, key.n_squared) == 1

    def test_rerandomize_is_fresh_each_call(self, keys, rng):
        original = keys.public_key.encrypt(2024, rng)
        first = original.rerandomize(rng)
        second = original.rerandomize(rng)
        assert len({original.ciphertext, first.ciphertext, second.ciphertext}) == 3
        assert keys.private_key.decrypt(first) == 2024
        assert keys.private_key.decrypt(second) == 2024
