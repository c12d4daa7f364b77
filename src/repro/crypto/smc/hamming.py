"""Secure equality test / Hamming distance for categorical attributes.

Hamming distance between categorical values is 0 or 1, so the protocol
reduces to a private equality test:

1. both holders hash their value into the plaintext space (SHA-256, so
   arbitrary strings work);
2. Alice sends ``E(h_a)`` to Bob;
3. Bob computes ``E(h_a - h_b)``, multiplicatively blinds it with a random
   ``rho`` (``E(rho * (h_a - h_b))``), re-randomizes and forwards to the
   querying party;
4. the querying party decrypts: zero means equal, anything else is a
   uniformly random multiple of the difference and reveals only "not
   equal".

Leakage note: when ``gcd(h_a - h_b, n) > 1`` the blinded value ranges over
a subgroup, which is a distinguishable event — but it happens with
negligible probability for random 256-bit hashes and a ≥512-bit modulus,
and finding such a pair amounts to factoring ``n``.
"""

from __future__ import annotations

import hashlib

from repro.crypto.paillier import EncryptedNumber
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


def bob_blinds_difference(
    session: SMCSession, alice_hash: EncryptedNumber, value
) -> EncryptedNumber:
    """Bob's step: ``E(rho * (h_a - h_b))``, re-randomized."""
    hashed = hash_value(value, session.public_key.n)
    difference = alice_hash - hashed
    rho = session.rng.randrange(1, session.public_key.n)
    blinded = (difference * rho).rerandomize(session.rng)
    session.transcript.record_operation("homomorphic_add", 1)
    session.transcript.record_operation("homomorphic_scale", 1)
    session.transcript.record_operation("rerandomize", 1)
    return blinded


def finish_equality(
    session: SMCSession, alice_hash: EncryptedNumber, bob_value
) -> bool:
    """Bob's step plus the query party's zero test, on Alice's ``E(h_a)``.

    *alice_hash* may be reused across Bob's records; the blinded
    difference Bob forwards is fresh each time.
    """
    blinded = bob_blinds_difference(session, alice_hash, bob_value)
    session.send_ciphertexts(BOB, QUERY, 1)
    raw = session.private_key.decrypt(blinded)
    session.transcript.record_operation("decrypt", 1)
    return raw == 0


def secure_equality(session: SMCSession, alice_value, bob_value) -> bool:
    """Run the full equality protocol; the query party learns one bit."""
    return finish_equality(
        session, alice_encrypts_hash(session, alice_value), bob_value
    )


def secure_hamming_distance(session: SMCSession, alice_value, bob_value) -> int:
    """Hamming distance via the equality protocol: 0 when equal, else 1."""
    return 0 if secure_equality(session, alice_value, bob_value) else 1
