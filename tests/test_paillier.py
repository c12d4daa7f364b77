"""Tests for the Paillier cryptosystem, including hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import paillier
from repro.crypto.paillier import (
    RANDOMIZER_BITS,
    FixedBase,
    PaillierKeyPair,
    PaillierPrivateKey,
)
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

    def test_seeded_1024_bit_modulus_is_pinned(self):
        """Key seed 496 at 1024 bits is the paillier-600 benchmark's key;
        the prime sieve must not change which primes a seed yields."""
        key = PaillierKeyPair.generate(1024, random.Random(496)).public_key
        assert key.n == int(
            "965ebb665cfb27b957761b680ba971493b4f85c1144dd7c781292764189941"
            "739a5d5478c05f384ddcf5b7c8995ab3d773c7e627686d689d3b75f0d1cff4"
            "4668d4137af124ab85534b194162f404c8681411efccca3f1b39ced7853f5c"
            "1182dafa3cdf4d11047f3c75b6ebd72a83fc8be8fbba4b5274566d9eba58f0"
            "270f6087",
            16,
        )

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
        assert key.randomizer_table.power(exponent) == pow(
            key.h_s, exponent, key.n_squared
        )

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


class TestFixedBase:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 2**64),
        st.sampled_from([1, 2, 3, 5]),
        st.integers(1, 160),
        st.data(),
    )
    def test_power_matches_pow(self, base, window, bits, data):
        modulus = 2**127 - 1
        exponent = data.draw(
            st.one_of(
                st.sampled_from([0, 1, 2**bits - 1]),
                st.integers(0, 2**bits - 1),
            )
        )
        table = FixedBase(base, modulus, bits, window)
        assert table.power(exponent) == pow(base, exponent, modulus)

    def test_rejects_exponents_outside_the_table(self):
        table = FixedBase(3, 1009, 8, 2)
        assert table.power(255) == pow(3, 255, 1009)
        with pytest.raises(CryptoError):
            table.power(256)
        with pytest.raises(CryptoError):
            table.power(-1)

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([0, 1, 2, 2**64]),
            st.integers(0, 2**256),
        )
    )
    def test_ciphertext_powers_equal_scaling(self, keys, scalar):
        key = keys.public_key
        scalar %= key.n
        ciphertext = key.encrypt(1234, random.Random(scalar))
        assert ciphertext.powers().power(scalar) == (ciphertext * scalar).ciphertext


def _without_factors(keys):
    private = keys.private_key
    return PaillierPrivateKey(keys.public_key, private.lam, private.mu)


class TestZeroTest:
    def test_plaintexts(self, keys, rng):
        key, private = keys.public_key, keys.private_key
        p, q = private.p, private.q
        cases = {0: True, 1: False, 42: False, key.n - 1: False}
        # Zero mod one prime only: the mod-p shortcut alone would say "zero".
        for k in (1, 2, q - 1):
            cases[k * p] = False
        for k in (1, 2, p - 1):
            cases[k * q] = False
        for plaintext, expected in cases.items():
            ciphertext = key.encrypt(plaintext, rng)
            assert private.decrypts_to_zero(ciphertext) is expected
            assert _without_factors(keys).decrypts_to_zero(ciphertext) is expected

    def test_homomorphic_zero(self, keys, rng):
        key = keys.public_key
        difference = key.encrypt(77, rng) - key.encrypt(77, rng)
        assert keys.private_key.decrypts_to_zero(difference * 123456789)

    def test_foreign_key_rejected(self, keys, rng):
        other = PaillierKeyPair.generate(160, random.Random(6))
        with pytest.raises(CryptoError):
            keys.private_key.decrypts_to_zero(other.public_key.encrypt(0, rng))


class TestBoundedDecryption:
    def test_within_half_of_p_decrypts_mod_p(self, keys, rng):
        key, private = keys.public_key, keys.private_key
        p = private.p
        for bound in (1, 2**40, p // 2 - 1, p // 2):
            assert 2 * bound < p
            for value in (-bound, -bound + 1, 0, bound - 1, bound):
                ciphertext = key.encrypt_signed(value, rng)
                assert private.decrypt_signed_bounded(ciphertext, bound) == value
        # Just outside the bound the mod-p shortcut shows: B + 1 comes back
        # as B + 1 - p, which a full decryption would not return.
        bound = p // 2
        ciphertext = key.encrypt_signed(bound + 1, rng)
        assert private.decrypt_signed_bounded(ciphertext, bound) == bound + 1 - p
        assert private.decrypt_signed(ciphertext) == bound + 1

    def test_bounds_of_half_p_and_above_fall_back(self, rng):
        keys = PaillierKeyPair.generate(128, random.Random(3))
        key, private = keys.public_key, keys.private_key
        p = private.p
        for bound in ((p + 1) // 2, p, key.n // 2):
            assert 2 * bound >= p
            for value in (-bound, -bound + 1, bound - 1, bound, bound + 1):
                if abs(value) > key.n // 2:
                    continue
                ciphertext = key.encrypt_signed(value, rng)
                assert private.decrypt_signed_bounded(ciphertext, bound) == value

    def test_key_without_factors(self, keys, rng):
        key = keys.public_key
        classic = _without_factors(keys)
        for value in (-(2**40), -1, 0, 1, 2**40):
            ciphertext = key.encrypt_signed(value, rng)
            assert classic.decrypt_signed_bounded(ciphertext, 2**40) == value
