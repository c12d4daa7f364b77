"""Secure squared Euclidean distance (the paper's Section V-A protocol).

    d_i(r.a_i, s.a_i) = (r.a_i - s.a_i)^2
                      = (r.a_i)^2 - 2 * r.a_i * s.a_i + (s.a_i)^2

"Alice can compute ``E(r.a_i^2)``, ``E(-2 * r.a_i)`` and send it to Bob.
Now Bob can calculate ``E(r.a_i^2) +h (E(-2 * r.a_i) xh s.a_i) +h
E(s.a_i^2)`` which is equal to ``E((r.a_i - s.a_i)^2)`` and send the result
back to querying site." The querying party decrypts to learn the squared
distance.

This basic variant reveals the distance value to the querying party (the
paper notes this and points to secure comparison for hiding it — see
:mod:`repro.crypto.smc.comparison`).
"""

from __future__ import annotations

from repro.crypto.paillier import EncryptedNumber
from repro.crypto.smc.channel import ALICE, BOB, QUERY, SMCSession


def alice_encrypts(session: SMCSession, value: float) -> tuple[EncryptedNumber, EncryptedNumber]:
    """Alice's step: produce ``E(a^2)`` and ``E(-2a)`` and send them to Bob."""
    codec = session.codec
    encoded = codec.encode(value)
    square = session.public_key.encrypt(
        (encoded * encoded) % session.public_key.n, session.rng
    )
    minus_twice = session.public_key.encrypt(
        (-2 * encoded) % session.public_key.n, session.rng
    )
    session.transcript.record_operation("encrypt", 2)
    session.send_ciphertexts(ALICE, BOB, 2)
    return square, minus_twice


def bob_combines(
    session: SMCSession,
    alice_square: EncryptedNumber,
    alice_minus_twice: EncryptedNumber,
    value: float,
) -> EncryptedNumber:
    """Bob's step: homomorphically assemble ``E((a - b)^2)``.

    The result stays with Bob, so it is not re-randomized here: whatever
    Bob derives from it for the querying party is re-randomized once,
    right before it is sent.
    """
    codec = session.codec
    encoded = codec.encode(value)
    bob_square = (encoded * encoded) % session.public_key.n
    distance = alice_square + (alice_minus_twice * encoded) + bob_square
    session.transcript.record_operation("homomorphic_add", 2)
    session.transcript.record_operation("homomorphic_scale", 1)
    return distance


def finish_squared_distance(
    session: SMCSession,
    alice_ciphertexts: tuple[EncryptedNumber, EncryptedNumber],
    bob_value: float,
) -> float:
    """Bob's steps plus the query party's decryption of ``(a-b)^2``.

    *alice_ciphertexts* is :func:`alice_encrypts`' output, which may be
    reused across Bob's records. Bob re-randomizes ``E(d^2)`` before
    forwarding it, so the querying party never sees a ciphertext twice.
    """
    encrypted_distance = bob_combines(session, *alice_ciphertexts, bob_value)
    encrypted_distance = encrypted_distance.rerandomize(session.rng)
    session.transcript.record_operation("rerandomize", 1)
    session.send_ciphertexts(BOB, QUERY, 1)
    raw = session.private_key.decrypt(encrypted_distance)
    session.transcript.record_operation("decrypt", 1)
    return session.codec.decode_square(raw)


def secure_squared_distance(
    session: SMCSession, alice_value: float, bob_value: float
) -> float:
    """Run the full three-party protocol; the query party learns ``(a-b)^2``.

    Returns the decoded squared distance. The transcript gains two
    Alice→Bob ciphertexts, one Bob→query ciphertext, two encryptions, one
    re-randomization and one decryption — the per-attribute cost the
    paper benchmarks at 0.43 s with 1024-bit keys.
    """
    return finish_squared_distance(
        session, alice_encrypts(session, alice_value), bob_value
    )
