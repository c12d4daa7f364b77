"""SRA / Pohlig–Hellman commutative encryption.

The related-work protocols of Agrawal, Evfimievski and Srikant [15]
("information sharing across private databases") build private set
intersection on *commutative* encryption: ``E_a(E_b(x)) = E_b(E_a(x))``,
so two parties can compare doubly-encrypted values without either seeing
the other's plaintexts. We implement the classic SRA scheme — modular
exponentiation with a secret exponent in a prime-order group — and the
equality-join protocol on top of it, as the exact-matching baseline the
paper positions itself against (Section VII: such methods "deal with exact
matching and are too expensive to be applied to large databases").

Values are hashed into the group with SHA-256, so arbitrary attribute
tuples can be compared for equality (and only equality — the limitation
the paper's blocking-based method lifts).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from repro.crypto.primes import generate_prime, is_probable_prime
from repro.errors import CryptoError


def generate_safe_prime(bits: int, rng: random.Random | None = None) -> int:
    """Generate a safe prime ``p = 2q + 1`` with *bits* bits."""
    if rng is None:
        rng = random.SystemRandom()
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_probable_prime(p, rng):
            return p


@dataclass(frozen=True)
class CommutativeKey:
    """A private SRA exponent in the group mod a shared safe prime.

    Two keys over the same prime commute:
    ``E_a(E_b(x)) = x^(a*b) = E_b(E_a(x)) (mod p)``.
    """

    prime: int
    exponent: int

    @classmethod
    def generate(
        cls, prime: int, rng: random.Random | None = None
    ) -> "CommutativeKey":
        """Draw a random exponent coprime to the group order ``p - 1``."""
        if rng is None:
            rng = random.SystemRandom()
        order = prime - 1
        while True:
            exponent = rng.randrange(3, order)
            if math.gcd(exponent, order) == 1:
                return cls(prime, exponent)

    def encrypt(self, element: int) -> int:
        """Encrypt a group element (commutes with other keys' encrypt)."""
        if not 1 <= element < self.prime:
            raise CryptoError("element outside the group")
        return pow(element, self.exponent, self.prime)

    def decrypt(self, element: int) -> int:
        """Invert :meth:`encrypt` using the inverse exponent."""
        inverse = pow(self.exponent, -1, self.prime - 1)
        return pow(element, inverse, self.prime)

    def hash_encrypt(self, value) -> int:
        """Hash an arbitrary value into the group, then encrypt."""
        return self.encrypt(hash_to_group(value, self.prime))


def hash_to_group(value, prime: int) -> int:
    """Map any printable value into the quadratic-residue subgroup.

    Squaring the SHA-256 digest mod ``p`` lands in the prime-order
    subgroup of a safe prime, which keeps exponents well-behaved.
    """
    digest = hashlib.sha256(repr(value).encode()).digest()
    element = int.from_bytes(digest, "big") % prime
    if element == 0:
        element = 1
    return pow(element, 2, prime)


def private_equality_join(
    left_values,
    right_values,
    prime: int,
    rng: random.Random | None = None,
) -> list[tuple[int, int]]:
    """The AES03-style equality join over two private value lists.

    Each side encrypts its (hashed) values under its own key, exchanges
    them, encrypts the other side's ciphertexts again, and intersects the
    doubly-encrypted multisets. Returns matching ``(left_index,
    right_index)`` pairs, left index ascending, then right. Both sides
    learn only the intersection (plus set sizes) — the protocol's stated
    guarantee in [15].
    """
    groups = private_equality_groups(left_values, right_values, prime, rng)
    rights_of = {left: rights for lefts, rights in groups for left in lefts}
    return [(left, right) for left in sorted(rights_of) for right in rights_of[left]]


def private_equality_groups(
    left_values,
    right_values,
    prime: int,
    rng: random.Random | None = None,
) -> list[tuple[list[int], list[int]]]:
    """:func:`private_equality_join`'s matches, grouped by shared value.

    One ``(left indices, right indices)`` pair per doubly-encrypted value
    both sides hold, each list ascending and the groups in order of their
    first left index: every left index of a group matches every right
    index of it, so the groups are the join without its cross products.
    """
    if rng is None:
        rng = random.SystemRandom()
    key_left = CommutativeKey.generate(prime, rng)
    key_right = CommutativeKey.generate(prime, rng)
    # SRA encryption is deterministic, so each distinct value (by the repr
    # hash_to_group hashes) is encrypted once and handed to every record
    # holding it: each side still holds one ciphertext per record.
    once_left = _encrypt_each(key_left.hash_encrypt, left_values, repr)
    once_right = _encrypt_each(key_right.hash_encrypt, right_values, repr)
    twice_left = _encrypt_each(key_right.encrypt, once_left, int)
    twice_right = _encrypt_each(key_left.encrypt, once_right, int)
    right_lookup: dict[int, list[int]] = {}
    for right_index, element in enumerate(twice_right):
        right_lookup.setdefault(element, []).append(right_index)
    left_lookup: dict[int, list[int]] = {}
    for left_index, element in enumerate(twice_left):
        if element in right_lookup:
            left_lookup.setdefault(element, []).append(left_index)
    return [(lefts, right_lookup[element]) for element, lefts in left_lookup.items()]


def _encrypt_each(encrypt, values, identity) -> list[int]:
    """``[encrypt(value) for value in values]``, one call per distinct
    ``identity(value)``."""
    values = list(values)
    keys = list(map(identity, values))
    distinct = dict(zip(keys, values))
    ciphertexts = {key: encrypt(value) for key, value in distinct.items()}
    return [ciphertexts[key] for key in keys]
