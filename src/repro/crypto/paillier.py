"""The Paillier public-key cryptosystem [18].

Paillier is additively homomorphic, which is exactly what the paper's SMC
protocol needs (Section V-A): given ``E(m1)`` and ``E(m2)`` anyone holding
the public key can compute ``E(m1 + m2)`` and, for a known constant ``c``,
``E(c * m1)`` — requirements (1) and (2) of the paper's homomorphic
encryption definition.

Implementation notes:

- the generator is fixed to ``g = n + 1``, the standard simplification:
  ``g^m = 1 + m*n (mod n^2)`` makes encryption one multiplication plus a
  blinding term;
- the blinding term follows Damgård, Jurik and Nielsen ("A generalization
  of Paillier's public-key system with applications to electronic
  voting", IJIS 2010, §4.1): key generation publishes ``h_s = h^n mod n²``
  for ``h = -x² mod n`` with ``x`` a random unit, and every encryption and
  re-randomization multiplies by ``h_s^a`` for a uniform
  :data:`RANDOMIZER_BITS`-bit ``a``. The exponentiation runs over a
  fixed-base window table built once per public key, which makes a
  randomizer about ten times cheaper than a fresh ``r^n mod n²``;
- decryption uses the CRT form (two half-size exponentiations, Garner
  recombination) whenever the private key holds ``p`` and ``q``, and the
  textbook form ``m = L(c^λ mod n²) · μ mod n`` with ``L(u) = (u - 1) / n``
  otherwise. Two cheaper exact forms answer narrower questions with one
  half-size exponentiation when they can: a zero test
  (:meth:`PaillierPrivateKey.decrypts_to_zero`) and the signed decryption
  of a plaintext under a public bound below ``p / 2``
  (:meth:`PaillierPrivateKey.decrypt_signed_bounded`);
- a party that scales one ciphertext by many scalars builds a fixed-base
  table over it once (:meth:`EncryptedNumber.powers`, the same
  :class:`FixedBase` helper as the randomizer's);
- ciphertexts are :class:`EncryptedNumber` objects supporting ``+`` (both
  ciphertext-ciphertext and ciphertext-plaintext) and ``*`` by a plaintext
  scalar, so protocol code reads like arithmetic;
- signed values are represented by the upper half of the plaintext space
  (see :meth:`PaillierPrivateKey.decrypt_signed`).

Key sizes: the paper benchmarks 1024-bit keys; tests use smaller keys for
speed, generated from a seeded RNG for reproducibility.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError

#: Length of the randomizer exponent ``a`` in ``h_s^a``. DJN (§4.1) draw
#: ``a`` uniform of ⌈k/2⌉ bits for a k-bit modulus. Semantic security then
#: needs, beyond DCR, that ``h^a`` for such a short ``a`` cannot be told
#: from a uniform element of ``<h>``; half the modulus length is where
#: Håstad, Schrift and Shamir show exponentiation modulo a composite hides
#: the exponent's bits as long as factoring is hard, so the exponent is
#: not cut shorter. 512 is ⌈k/2⌉ at the paper's 1024-bit keys; larger keys
#: use ⌈k/2⌉ (see :attr:`PaillierPublicKey.randomizer_bits`). A 320-bit
#: exponent would save ≈0.08 s of a ≈1.2 s paillier-600 link, within its
#: run-to-run spread: not worth a weaker assumption.
RANDOMIZER_BITS = 512

#: Window width of the fixed-base table, in exponent bits. A 1024-bit
#: link pays one table build plus a randomizer per encryption and
#: re-randomization (83 on the paillier-600 workload). Build + 83
#: randomizers measured, widths 4..8: 0.187, 0.178, 0.220, 0.279, 0.381 s
#: (x86-64, CPython 3.11). At 5 bits the table holds 103 rows of 32
#: entries (≈0.84 MB, built in ≈0.05 s) and a randomizer costs ≈1.6 ms,
#: against ≈17 ms for a fresh ``r^n mod n²``; wider windows save fewer
#: multiplications per randomizer than their larger build costs.
WINDOW_BITS = 5

#: Window width of the table Bob builds over each ciphertext Alice sends
#: (:meth:`EncryptedNumber.powers`); its exponents are full-size ρ. At
#: 1024 bits one table costs 16, 28 or 45 ms to build at widths 1, 2 or 3,
#: and a power over it 10.1, 7.9 or 5.9 ms, against 18.8 ms for ``pow``.
#: On paillier-600's equality tests (4 ciphertexts with 2, 2, 13 and 13
#: uses) build + powers took 0.291, 0.281 and 0.294 s (widths 1-3; width
#: 4: 0.392 s), against 0.489 s with ``pow`` (best of 7, x86-64,
#: CPython 3.11). A table breaks even at two uses, so every ciphertext
#: gets one.
CIPHERTEXT_WINDOW_BITS = 2


class FixedBase:
    """``base^e mod modulus`` for any ``e`` below ``2^exponent_bits``.

    Row ``i`` of the table holds ``base^(d · 2^(window·i))`` for each
    ``window``-bit digit ``d``, so a power costs one multiplication per
    nonzero digit of the exponent and no squarings. Building the table
    costs ``2^window − 1`` multiplications per row; it pays off when the
    same base is raised to several exponents.
    """

    __slots__ = ("modulus", "window", "rows")

    def __init__(self, base: int, modulus: int, exponent_bits: int, window: int):
        self.modulus = modulus
        self.window = window
        rows = []
        base %= modulus
        for _ in range(-(-exponent_bits // window)):
            row = [1, base]
            for _ in range(2, 1 << window):
                row.append(row[-1] * base % modulus)
            rows.append(tuple(row))
            base = row[-1] * base % modulus
        self.rows = tuple(rows)

    def power(self, exponent: int) -> int:
        """``base^exponent mod modulus``; *exponent* must be in range."""
        if exponent < 0 or exponent >> (self.window * len(self.rows)):
            raise CryptoError("exponent outside the fixed-base table's range")
        modulus = self.modulus
        window = self.window
        mask = (1 << window) - 1
        result = 1
        for row in self.rows:
            digit = exponent & mask
            if digit:
                result = result * row[digit] % modulus
            exponent >>= window
        return result


@dataclass(frozen=True)
class PaillierPublicKey:
    """The public half: modulus ``n`` (with ``g = n + 1`` implied) and the
    DJN randomizer base ``h_s``, an n-th residue mod ``n²``."""

    n: int
    h_s: int

    @property
    def n_squared(self) -> int:
        """The ciphertext modulus ``n^2``."""
        return self.n * self.n

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext (an element mod ``n^2``)."""
        return (self.n_squared.bit_length() + 7) // 8

    @property
    def randomizer_bits(self) -> int:
        """Length of the randomizer exponent: ``max(RANDOMIZER_BITS, ⌈k/2⌉)``."""
        return max(RANDOMIZER_BITS, (self.bits + 1) // 2)

    @cached_property
    def randomizer_table(self) -> "FixedBase":
        """The fixed-base powers of ``h_s`` behind :meth:`randomizer`.

        Built on first use and cached on the key object (not a field, so
        it stays out of ``eq``, ``repr`` and the wire format).
        """
        return FixedBase(self.h_s, self.n_squared, self.randomizer_bits, WINDOW_BITS)

    def randomizer(self, rng: random.Random) -> int:
        """A fresh blinding term ``h_s^a mod n²``.

        ``a`` is uniform below ``2^randomizer_bits``.
        """
        return self.randomizer_table.power(rng.getrandbits(self.randomizer_bits))

    def encrypt(
        self, plaintext: int, rng: random.Random | None = None
    ) -> "EncryptedNumber":
        """Encrypt ``plaintext`` (an integer mod ``n``)."""
        if not 0 <= plaintext < self.n:
            raise CryptoError(
                f"plaintext {plaintext} outside [0, n); encode signed values first"
            )
        if rng is None:
            rng = random.SystemRandom()
        n_squared = self.n_squared
        # g^m = (n+1)^m = 1 + m*n (mod n^2)
        g_m = (1 + plaintext * self.n) % n_squared
        return EncryptedNumber(self, g_m * self.randomizer(rng) % n_squared)

    def encrypt_signed(
        self, value: int, rng: random.Random | None = None
    ) -> "EncryptedNumber":
        """Encrypt a signed integer (two's-complement-style wrap mod n)."""
        return self.encrypt(value % self.n, rng)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """The private half: Carmichael ``λ`` and its inverse ``μ`` mod n."""

    public_key: PaillierPublicKey
    lam: int
    mu: int
    #: Prime factors of n; when present, decryption uses the ~4x faster
    #: CRT path (two half-size exponentiations instead of one full-size).
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.p is None or self.q is None:
            object.__setattr__(self, "_crt", None)
            return
        # Precompute the CRT constants (standard Paillier optimization):
        # with L_p(x) = (x - 1) / p and g = n + 1,
        # h_p = L_p(g^(p-1) mod p^2)^(-1) mod p, likewise h_q.
        p, q = self.p, self.q
        n = self.public_key.n
        p_squared = p * p
        q_squared = q * q
        h_p = pow(((1 + (p - 1) * n) % p_squared - 1) // p, -1, p)
        h_q = pow(((1 + (q - 1) * n) % q_squared - 1) // q, -1, q)
        p_inverse = pow(p, -1, q)
        object.__setattr__(
            self, "_crt", (p_squared, q_squared, h_p, h_q, p_inverse)
        )

    def decrypt(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt to the raw plaintext in ``[0, n)``."""
        self._check_key(encrypted)
        if self._crt is not None:
            return self._decrypt_crt(encrypted.ciphertext)
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        u = pow(encrypted.ciphertext, self.lam, n_squared)
        l_of_u = (u - 1) // n
        return (l_of_u * self.mu) % n

    def _decrypt_crt(self, ciphertext: int) -> int:
        """CRT decryption: two half-size exponentiations, then recombine.

        The plaintext mod p is ``L_p(c^(p-1) mod p^2) * h_p mod p``: the
        blinding term is an n-th power, and an n-th power mod ``p²`` has
        order dividing ``p - 1``, so raising to ``p - 1`` removes it.
        Likewise mod q; Garner's formula recombines.
        """
        p, q = self.p, self.q
        p_squared, q_squared, h_p, h_q, p_inverse = self._crt
        m_p = ((pow(ciphertext, p - 1, p_squared) - 1) // p * h_p) % p
        m_q = ((pow(ciphertext, q - 1, q_squared) - 1) // q * h_q) % q
        # Garner: m = m_p + p * ((m_q - m_p) * p^(-1) mod q).
        return (m_p + p * (((m_q - m_p) * p_inverse) % q)) % self.public_key.n

    def decrypt_signed(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt interpreting the upper half of ``[0, n)`` as negative."""
        raw = self.decrypt(encrypted)
        n = self.public_key.n
        if raw > n // 2:
            return raw - n
        return raw

    def decrypts_to_zero(self, encrypted: "EncryptedNumber") -> bool:
        """Whether the plaintext is 0, usually at half a decryption's cost.

        ``c^(p-1) mod p²`` is ``1`` exactly when the plaintext is 0 mod p
        (see :meth:`_decrypt_crt`), so a nonzero plaintext is reported
        after one half-size exponentiation. A plaintext that is 0 mod p
        is confirmed mod q before "zero" is reported: multiples of p are
        nonzero plaintexts too.
        """
        self._check_key(encrypted)
        if self._crt is None:
            return self.decrypt(encrypted) == 0
        p_squared, q_squared = self._crt[:2]
        ciphertext = encrypted.ciphertext
        return (
            pow(ciphertext, self.p - 1, p_squared) == 1
            and pow(ciphertext, self.q - 1, q_squared) == 1
        )

    def decrypt_signed_bounded(self, encrypted: "EncryptedNumber", bound: int) -> int:
        """:meth:`decrypt_signed` of a plaintext ``m`` known to satisfy
        ``|m| <= bound``.

        When ``2·bound < p``, ``m mod p`` alone determines ``m``: the
        residues of ``[-bound, bound]`` mod p are distinct and the
        negative ones lie above ``p // 2``. That costs one half-size
        exponentiation instead of two. Larger bounds, and keys without
        their factors, take the full decryption.
        """
        self._check_key(encrypted)
        if self._crt is None or 2 * bound >= self.p:
            return self.decrypt_signed(encrypted)
        p = self.p
        p_squared, h_p = self._crt[0], self._crt[2]
        m_p = (pow(encrypted.ciphertext, p - 1, p_squared) - 1) // p * h_p % p
        return m_p - p if m_p > p // 2 else m_p

    def _check_key(self, encrypted: "EncryptedNumber") -> None:
        if encrypted.public_key != self.public_key:
            raise CryptoError("ciphertext was produced under a different key")


@dataclass(frozen=True)
class PaillierKeyPair:
    """A generated public/private key pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @classmethod
    def generate(
        cls, bits: int = 1024, rng: random.Random | None = None
    ) -> "PaillierKeyPair":
        """Generate a key pair with a *bits*-bit modulus.

        The paper's experiments use ``bits=1024``. Primes are drawn at
        ``bits // 2`` each; generation retries until the modulus has the
        requested size and ``gcd(n, λ) = 1`` holds. The randomizer base
        ``h_s`` is drawn from *rng* only after the primes are accepted, so
        a seeded RNG yields the same modulus it would without ``h_s``.
        """
        if rng is None:
            rng = random.SystemRandom()
        half = bits // 2
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(half, rng)
            if p == q:
                continue
            n = p * q
            if n.bit_length() != bits:
                continue
            lam = math.lcm(p - 1, q - 1)
            if math.gcd(n, lam) != 1:
                continue
            # With g = n + 1: mu = (L(g^lam mod n^2))^-1 = lam^-1 mod n.
            mu = pow(lam, -1, n)
            public_key = PaillierPublicKey(n, _randomizer_base(n, rng))
            private_key = PaillierPrivateKey(public_key, lam, mu, p=p, q=q)
            return cls(public_key, private_key)


def _randomizer_base(n: int, rng: random.Random) -> int:
    """DJN's ``h_s = h^n mod n²`` for ``h = -x² mod n``, ``x`` a random unit."""
    while True:
        x = rng.randrange(2, n)
        if math.gcd(x, n) == 1:
            return pow(-x * x % n, n, n * n)


class EncryptedNumber:
    """A Paillier ciphertext with homomorphic operator sugar.

    ``a + b`` multiplies ciphertexts (adds plaintexts); ``a + 3`` adds a
    plaintext constant; ``a * 3`` scales the plaintext; ``-a`` negates.
    All operations are the paper's ``+_h`` and ``x_h``.
    """

    __slots__ = ("public_key", "ciphertext")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int):
        self.public_key = public_key
        self.ciphertext = ciphertext % public_key.n_squared

    def __add__(self, other) -> "EncryptedNumber":
        n_squared = self.public_key.n_squared
        if isinstance(other, EncryptedNumber):
            if other.public_key != self.public_key:
                raise CryptoError("cannot add ciphertexts under different keys")
            return EncryptedNumber(
                self.public_key, (self.ciphertext * other.ciphertext) % n_squared
            )
        if isinstance(other, int):
            g_m = (1 + (other % self.public_key.n) * self.public_key.n) % n_squared
            return EncryptedNumber(
                self.public_key, (self.ciphertext * g_m) % n_squared
            )
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar) -> "EncryptedNumber":
        if not isinstance(scalar, int):
            return NotImplemented
        exponent = scalar % self.public_key.n
        return EncryptedNumber(
            self.public_key,
            pow(self.ciphertext, exponent, self.public_key.n_squared),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "EncryptedNumber":
        return self * (self.public_key.n - 1)

    def __sub__(self, other) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def powers(self) -> FixedBase:
        """A fixed-base table for ``self * k`` over many scalars ``k < n``.

        ``EncryptedNumber(key, table.power(k))`` equals ``self * k``. A
        party that scales one received ciphertext by several fresh
        scalars builds this once; it holds only powers of the ciphertext.
        """
        key = self.public_key
        return FixedBase(
            self.ciphertext, key.n_squared, key.bits, CIPHERTEXT_WINDOW_BITS
        )

    def rerandomize(self, rng: random.Random | None = None) -> "EncryptedNumber":
        """Refresh the blinding factor without changing the plaintext.

        Protocol parties re-randomize before forwarding derived ciphertexts
        so an observer cannot correlate them with the inputs.
        """
        if rng is None:
            rng = random.SystemRandom()
        key = self.public_key
        return EncryptedNumber(
            key, self.ciphertext * key.randomizer(rng) % key.n_squared
        )

    def __repr__(self) -> str:
        return f"EncryptedNumber(<{self.public_key.bits}-bit key>)"
