"""Primality testing and prime generation for Paillier key material.

Miller–Rabin with the deterministic witness sets that are proven exact for
64-bit integers, falling back to random witnesses above that range. Trial
division by the primes up to 199 and one gcd against the primes below
2^14 reject most composites before any Miller–Rabin round. Prime
*generation* seeds candidates from a caller-supplied RNG so tests are
reproducible, but the library defaults to ``secrets``-grade randomness via
``random.SystemRandom`` when no RNG is given.
"""

from __future__ import annotations

import math
import random

from repro.errors import CryptoError

# Small primes for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

#: Every candidate is sieved against the primes below this bound
#: (:data:`_SIEVE_PRIMORIAL`) before Miller-Rabin runs.
_SIEVE_LIMIT = 1 << 14


def _primorial(limit: int) -> int:
    """The product of the primes below *limit* (sieve of Eratosthenes)."""
    composite = bytearray(limit)
    product = 1
    for value in range(2, limit):
        if not composite[value]:
            product *= value
            multiples = range(value * value, limit, value)
            composite[value * value :: value] = b"\x01" * len(multiples)
    return product


_SIEVE_PRIMORIAL = _primorial(_SIEVE_LIMIT)

# Deterministic witnesses: exact for n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Random rounds for large candidates; error probability <= 4^-40.
MILLER_RABIN_ROUNDS = 40


def _miller_rabin_round(candidate: int, witness: int, odd: int, twos: int) -> bool:
    """One Miller-Rabin round; True when *candidate* passes for *witness*."""
    x = pow(witness, odd, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(twos - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return True
    return False


def is_probable_prime(
    candidate: int, rng: random.Random | None = None
) -> bool:
    """Miller–Rabin primality test.

    Deterministic (and exact) below ~3.3e24; probabilistic with
    :data:`MILLER_RABIN_ROUNDS` random witnesses above.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    odd = candidate - 1
    twos = 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    if candidate < _DETERMINISTIC_BOUND:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        if rng is None:
            rng = random.SystemRandom()
        witnesses = tuple(
            rng.randrange(2, candidate - 1) for _ in range(MILLER_RABIN_ROUNDS)
        )
    # One gcd rejects most composites that trial division let through, at
    # a fraction of a Miller-Rabin round's cost. It runs after the
    # witnesses are drawn, so the RNG stream, and with it every prime a
    # seeded RNG generates, stays what it was without the sieve. Below
    # _SIEVE_LIMIT (< 211²) a candidate without a factor up to 199 is
    # prime, so a shared factor there is the candidate itself.
    if math.gcd(candidate, _SIEVE_PRIMORIAL) != 1:
        return candidate < _SIEVE_LIMIT
    return all(
        _miller_rabin_round(candidate, witness, odd, twos)
        for witness in witnesses
    )


def generate_prime(bits: int, rng: random.Random | None = None) -> int:
    """Generate a random prime with exactly *bits* bits.

    Candidates are odd with the top bit forced, so products of two such
    primes have the expected modulus size.
    """
    if bits < 8:
        raise CryptoError(f"prime size {bits} bits is too small")
    if rng is None:
        rng = random.SystemRandom()
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def generate_distinct_primes(
    bits: int, count: int, rng: random.Random | None = None
) -> list[int]:
    """Generate *count* distinct primes of *bits* bits each."""
    primes: list[int] = []
    while len(primes) < count:
        prime = generate_prime(bits, rng)
        if prime not in primes:
            primes.append(prime)
    return primes
