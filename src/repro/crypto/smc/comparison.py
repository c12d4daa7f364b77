"""Blinded threshold comparison: hide the distance, reveal only the bit.

The paper: "Such secure distance evaluation could be combined with secure
comparison to not to reveal even the distance result." This module supplies
that combination for the squared-Euclidean protocol:

1. Alice and Bob run their :mod:`~repro.crypto.smc.euclidean` steps to get
   ``E(d^2)`` at Bob;
2. Bob subtracts the (public) squared threshold: ``E(m) = E(d^2 - t^2)``,
   so the pair matches exactly when ``m <= 0``;
3. Bob multiplies by a random *positive* ``rho`` — the sign of ``rho * m``
   equals the sign of ``m`` — re-randomizes, and forwards to the querying
   party;
4. the querying party decrypts with signed decoding and reports
   ``rho * m <= 0``. ``|rho * m|`` has a public bound far below ``p / 2``
   at the paper's key sizes, so it decrypts mod ``p`` alone
   (:meth:`~repro.crypto.paillier.PaillierPrivateKey.decrypt_signed_bounded`).

Leakage analysis (documented, as the paper leaves the comparison abstract):
the querying party sees ``rho * m`` for uniform ``rho`` in ``[1, R)``. The
sign is the intended output; the magnitude reveals at most the order of
magnitude of ``|m|`` relative to ``R`` (and ``m = 0`` is visible exactly —
the boundary case where the distance equals the threshold). A
bit-decomposition comparison would remove even that at substantially
higher cost; the blinded sign test matches the paper's cost envelope of
"a few ciphertexts per attribute".
"""

from __future__ import annotations

from repro.crypto.paillier import EncryptedNumber
from repro.crypto.smc.channel import BOB, QUERY, SMCSession
from repro.crypto.smc.euclidean import alice_encrypts, bob_combines


def default_magnitude_bound(
    alice_value: float, bob_value: float, threshold: float
) -> float:
    """A cap on ``|d^2 - t^2|`` on the raw scale for domain-bounded values.

    ``d^2 <= (|a| + |b|)^2 <= (2 * bound)^2`` with ``bound`` the largest
    of the operands, the threshold and 1.
    """
    bound = max(abs(alice_value), abs(bob_value), threshold, 1.0)
    return 4.0 * bound * bound


def finish_within_threshold(
    session: SMCSession,
    alice_ciphertexts: tuple[EncryptedNumber, EncryptedNumber],
    bob_value: float,
    threshold: float,
    magnitude_bound: float,
) -> bool:
    """Bob's steps plus the query party's sign test, on Alice's ciphertexts.

    *alice_ciphertexts* is :func:`~repro.crypto.smc.euclidean.alice_encrypts`'
    output and may be reused across Bob's records: Bob keeps ``E(d^2)`` to
    himself and re-randomizes only the blinded margin he forwards, once.
    """
    encrypted_distance = bob_combines(session, *alice_ciphertexts, bob_value)
    codec = session.codec
    encoded_threshold = codec.encode_square_threshold(threshold * threshold)
    margin = encrypted_distance - encoded_threshold
    encoded_bound = int(magnitude_bound * codec.scale * codec.scale) + 1
    rho = session.random_blinder(encoded_bound)
    blinded = (margin * rho).rerandomize(session.rng)
    session.transcript.record_operation("homomorphic_add", 1)
    session.transcript.record_operation("homomorphic_scale", 1)
    session.transcript.record_operation("rerandomize", 1)
    session.send_ciphertexts(BOB, QUERY, 1)
    # A public bound on |rho * margin| lets the querying party decrypt mod
    # p alone. The margin's operands are rounded encodings, so |margin|
    # can exceed encoded_bound by the rounding (e.g. 1.00015 and -1.00015
    # at precision 4); twice the bound plus the encoded threshold covers
    # that, since (x + 1)² <= 2x² + 2.
    plaintext_bound = session.blinder_ceiling(encoded_bound) * (
        2 * (encoded_bound + encoded_threshold) + 4
    )
    signed = session.private_key.decrypt_signed_bounded(blinded, plaintext_bound)
    session.transcript.record_operation("decrypt", 1)
    return signed <= 0


def secure_within_threshold(
    session: SMCSession,
    alice_value: float,
    bob_value: float,
    threshold: float,
    *,
    magnitude_bound: float | None = None,
) -> bool:
    """True when ``|alice_value - bob_value| <= threshold``.

    ``magnitude_bound`` caps ``|d^2 - t^2|`` on the raw scale and sizes
    the blinding factor; by default it is :func:`default_magnitude_bound`,
    which is safe for attribute domains (the values the linkage protocol
    feeds in are domain-bounded).
    """
    if magnitude_bound is None:
        magnitude_bound = default_magnitude_bound(
            alice_value, bob_value, threshold
        )
    return finish_within_threshold(
        session,
        alice_encrypts(session, alice_value),
        bob_value,
        threshold,
        magnitude_bound,
    )
