"""Secure equality test / Hamming distance for categorical attributes.

Hamming distance between categorical values is 0 or 1, so the protocol
reduces to a private equality test:

1. both holders hash their value into the plaintext space (SHA-256, so
   arbitrary strings work);
2. Alice sends ``E(h_a)`` to Bob, who builds a fixed-base table over it
   on arrival (it is scaled once per record of Bob's);
3. Bob computes ``E(h_a - h_b)``, multiplicatively blinds it with a random
   ``rho`` (``E(rho * (h_a - h_b))``), re-randomizes and forwards to the
   querying party;
4. the querying party tests the plaintext for zero: zero means equal,
   anything else is a uniformly random multiple of the difference and
   reveals only "not equal".

Leakage note: when ``gcd(h_a - h_b, n) > 1`` the blinded value ranges over
a subgroup, which is a distinguishable event — but it happens with
negligible probability for random 256-bit hashes and a ≥512-bit modulus,
and finding such a pair amounts to factoring ``n``.
"""

from __future__ import annotations

import hashlib

from repro.crypto.paillier import EncryptedNumber, FixedBase
from repro.crypto.smc.channel import ALICE, BOB, QUERY, SMCSession


def hash_value(value, modulus: int) -> int:
    """Hash an arbitrary value into ``[0, modulus)``."""
    digest = hashlib.sha256(repr(value).encode()).digest()
    return int.from_bytes(digest, "big") % modulus


def alice_encrypts_hash(session: SMCSession, value) -> EncryptedNumber:
    """Alice's step: send ``E(h_a)`` to Bob."""
    hashed = hash_value(value, session.public_key.n)
    encrypted = session.public_key.encrypt(hashed, session.rng)
    session.transcript.record_operation("encrypt", 1)
    session.send_ciphertexts(ALICE, BOB, 1)
    return encrypted


def alice_sends_hash(session: SMCSession, value) -> FixedBase:
    """Alice's step as it arrives at Bob: ``E(h_a)``, prepared once.

    Bob scales ``E(h_a)`` by a fresh full-size ρ for each of his records,
    so on arrival he builds its fixed-base powers
    (:meth:`~repro.crypto.paillier.EncryptedNumber.powers`) and keeps
    those in its place.
    """
    return alice_encrypts_hash(session, value).powers()


def bob_blinds_difference(
    session: SMCSession, alice_hash: FixedBase, value
) -> EncryptedNumber:
    """Bob's step: ``E(rho * (h_a - h_b))``, re-randomized.

    *alice_hash* is :func:`alice_sends_hash`' output. The blinded
    difference is ``E(h_a)^rho · g^(-rho·h_b)``: the same ciphertext as
    ``(E(h_a) - h_b) * rho``, with ρ applied to Alice's ciphertext over
    its table.
    """
    key = session.public_key
    hashed = hash_value(value, key.n)
    rho = session.rng.randrange(1, key.n)
    scaled = EncryptedNumber(key, alice_hash.power(rho)) - rho * hashed
    blinded = scaled.rerandomize(session.rng)
    session.transcript.record_operation("homomorphic_add", 1)
    session.transcript.record_operation("homomorphic_scale", 1)
    session.transcript.record_operation("rerandomize", 1)
    return blinded


def finish_equality(
    session: SMCSession, alice_hash: FixedBase, bob_value
) -> bool:
    """Bob's step plus the query party's zero test, on Alice's ``E(h_a)``.

    *alice_hash* is :func:`alice_sends_hash`' output and may be reused
    across Bob's records; the blinded difference Bob forwards is fresh
    each time.
    """
    blinded = bob_blinds_difference(session, alice_hash, bob_value)
    session.send_ciphertexts(BOB, QUERY, 1)
    equal = session.private_key.decrypts_to_zero(blinded)
    session.transcript.record_operation("decrypt", 1)
    return equal


def secure_equality(session: SMCSession, alice_value, bob_value) -> bool:
    """Run the full equality protocol; the query party learns one bit."""
    return finish_equality(
        session, alice_sends_hash(session, alice_value), bob_value
    )


def secure_hamming_distance(session: SMCSession, alice_value, bob_value) -> int:
    """Hamming distance via the equality protocol: 0 when equal, else 1."""
    return 0 if secure_equality(session, alice_value, bob_value) else 1
