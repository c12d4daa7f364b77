"""Tests for Miller-Rabin and prime generation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primes import (
    MILLER_RABIN_ROUNDS,
    generate_distinct_primes,
    generate_prime,
    is_probable_prime,
)
from repro.errors import CryptoError

KNOWN_PRIMES = [
    2, 3, 5, 7, 97, 101, 7919, 104729, 2**31 - 1,
    # Carmichael-number neighbors and large primes.
    32416190071, 2305843009213693951,
]

KNOWN_COMPOSITES = [
    0, 1, 4, 561, 1105, 1729,  # Carmichael numbers included
    2465, 6601, 8911, 104730, 2**32, 7919 * 104729,
]

# Primes past trial division (> 199) but below the sieve's 2^14.
SIEVE_PRIMES = [211, 223, 8191, 12289, 16381]

# Smallest factor in (199, 2^14): trial division passes them, the sieve
# does not. The last one is above the deterministic bound.
SIEVE_COMPOSITES = [
    211 * 211, 211 * 223, 16381 * 16381, 12289 * (2**61 - 1),
    16381 * (2**89 - 1),
]


class TestIsProbablePrime:
    @pytest.mark.parametrize("prime", KNOWN_PRIMES)
    def test_accepts_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", KNOWN_COMPOSITES)
    def test_rejects_composites(self, composite):
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize("prime", SIEVE_PRIMES)
    def test_accepts_primes_inside_the_sieve(self, prime):
        assert is_probable_prime(prime, random.Random(1))

    @pytest.mark.parametrize("composite", SIEVE_COMPOSITES)
    def test_sieve_rejects_composites_past_trial_division(self, composite):
        assert not is_probable_prime(composite, random.Random(1))

    def test_sieve_runs_after_the_witnesses_are_drawn(self):
        """A sieved composite consumes the same draws as one Miller-Rabin
        rejects, so seeded prime generation is unchanged by the sieve."""
        candidate = 16381 * (2**89 - 1)
        rng = random.Random(8)
        is_probable_prime(candidate, rng)
        expected = random.Random(8)
        for _ in range(MILLER_RABIN_ROUNDS):
            expected.randrange(2, candidate - 1)
        assert rng.getstate() == expected.getstate()

    def test_negative(self):
        assert not is_probable_prime(-7)

    @given(st.integers(2, 10_000))
    def test_agrees_with_trial_division(self, candidate):
        by_trial = all(
            candidate % divisor for divisor in range(2, int(candidate**0.5) + 1)
        )
        assert is_probable_prime(candidate) == by_trial

    def test_large_probabilistic_path(self):
        # Above the deterministic bound: a known Mersenne prime exponent pair.
        large_prime = 2**89 - 1
        rng = random.Random(5)
        assert is_probable_prime(large_prime * 1, rng)
        assert not is_probable_prime(large_prime * (2**61 - 1), rng)


class TestGeneratePrime:
    def test_bit_length_and_primality(self):
        rng = random.Random(42)
        for bits in (16, 32, 64, 128):
            prime = generate_prime(bits, rng)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)
            assert prime % 2 == 1

    def test_deterministic_with_seeded_rng(self):
        assert generate_prime(64, random.Random(9)) == generate_prime(
            64, random.Random(9)
        )

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_prime(4)

    def test_distinct_primes(self):
        rng = random.Random(1)
        primes = generate_distinct_primes(32, 3, rng)
        assert len(set(primes)) == 3
        assert all(is_probable_prime(prime) for prime in primes)
