"""Protocol session plumbing: parties, message accounting, op counters.

The protocols in this package are written as explicit sequences of
party-labeled steps. Every ciphertext that crosses a party boundary is
recorded on a :class:`Transcript`, and every expensive cryptographic
operation bumps a counter, so benchmarks can report communication and
computation costs without instrumenting the math.

Party names follow the paper: ``alice`` and ``bob`` are the data holders,
``query`` is the querying party that owns the key pair.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro._rng import make_random
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.paillier import PaillierKeyPair
from repro.errors import CryptoError
from repro.obs import Telemetry

ALICE = "alice"
BOB = "bob"
QUERY = "query"


@dataclass
class Transcript:
    """Accumulated communication and computation costs of a protocol run.

    ``bytes_sent`` is the protocol-level *estimate* (ciphertext and key
    sizes, as the in-process simulation accounts them). ``bytes_on_wire``
    is the *measured* size of serialized ``repro.net`` frames; it stays 0
    for in-process runs, and the gap between the two is part of the run
    report (``channel.bytes_sent`` vs ``net.bytes_on_wire``).
    """

    messages: int = 0
    bytes_sent: int = 0
    bytes_on_wire: int = 0
    operations: Counter = field(default_factory=Counter)
    #: Optional :class:`repro.obs.Telemetry` mirror: when bound, every
    #: message and operation also lands in the shared metrics registry
    #: (``channel.messages`` / ``channel.bytes_sent`` / ``crypto.<op>``).
    telemetry: Telemetry | None = field(
        default=None, repr=False, compare=False
    )

    def bind_telemetry(self, telemetry: Telemetry | None) -> None:
        """Mirror this transcript into *telemetry*'s metrics registry.

        Costs already accumulated are synced immediately, so late binding
        (e.g. attaching telemetry to an oracle whose session already
        distributed keys) loses nothing.
        """
        self.telemetry = telemetry
        if telemetry is None:
            return
        if self.messages:
            telemetry.counter("channel.messages").add(self.messages)
        if self.bytes_sent:
            telemetry.counter("channel.bytes_sent").add(self.bytes_sent)
        if self.bytes_on_wire:
            telemetry.counter("net.bytes_on_wire").add(self.bytes_on_wire)
        for name, count in self.operations.items():
            telemetry.counter(f"crypto.{name}").add(count)

    def record_message(self, sender: str, receiver: str, size_bytes: int) -> None:
        """Account for one message of *size_bytes* crossing a boundary."""
        if sender == receiver:
            return
        self.messages += 1
        self.bytes_sent += size_bytes
        if self.telemetry is not None:
            self.telemetry.counter("channel.messages").add(1)
            self.telemetry.counter("channel.bytes_sent").add(size_bytes)

    def record_operation(self, name: str, count: int = 1) -> None:
        """Bump the counter for a named crypto operation."""
        self.operations[name] += count
        if self.telemetry is not None:
            self.telemetry.counter(f"crypto.{name}").add(count)

    def record_wire_bytes(self, size_bytes: int) -> None:
        """Account for *size_bytes* of actual serialized frame traffic.

        Only the ``repro.net`` transport calls this; it measures what
        really crossed a socket (framing and handshake overhead included),
        next to the protocol-level estimate kept by
        :meth:`record_message`.
        """
        self.bytes_on_wire += size_bytes
        if self.telemetry is not None:
            self.telemetry.counter("net.bytes_on_wire").add(size_bytes)

    def merged_with(self, other: "Transcript") -> "Transcript":
        """Combine two transcripts (e.g. across protocol invocations)."""
        merged = Transcript(
            messages=self.messages + other.messages,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_on_wire=self.bytes_on_wire + other.bytes_on_wire,
        )
        merged.operations = self.operations + other.operations
        return merged

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        ops = ", ".join(
            f"{name}={count}" for name, count in sorted(self.operations.items())
        )
        wire = (
            f" ({self.bytes_on_wire} on wire)" if self.bytes_on_wire else ""
        )
        return (
            f"{self.messages} messages, {self.bytes_sent} bytes{wire}"
            + (f", {ops}" if ops else "")
        )


class SMCSession:
    """Shared state for a series of protocol invocations.

    Holds the querying party's key pair, a fixed-point codec sized to the
    key, the transcript, and a deterministic RNG for blinding factors
    (tests seed it; production callers default to system randomness).

    Key distribution is part of the session setup: the public key is sent
    from the querying party to both holders once, not per comparison —
    matching the paper's protocol description.
    """

    def __init__(
        self,
        key_pair: PaillierKeyPair,
        *,
        precision: int = 4,
        rng: int | random.Random | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.key_pair = key_pair
        self.public_key = key_pair.public_key
        self.private_key = key_pair.private_key
        self.codec = FixedPointCodec(self.public_key.n, precision)
        self.transcript = Transcript()
        if telemetry is not None:
            self.transcript.bind_telemetry(telemetry)
        if rng is None:
            self.rng: random.Random = random.SystemRandom()
        else:
            self.rng = make_random(rng)
        key_bytes = (self.public_key.bits + 7) // 8
        self.transcript.record_message(QUERY, ALICE, key_bytes)
        self.transcript.record_message(QUERY, BOB, key_bytes)

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one Paillier ciphertext under this session's key."""
        return self.public_key.ciphertext_bytes

    def send_ciphertexts(self, sender: str, receiver: str, count: int) -> None:
        """Record *count* ciphertexts moving from *sender* to *receiver*."""
        self.transcript.record_message(
            sender, receiver, count * self.ciphertext_bytes
        )

    def blinder_ceiling(self, magnitude_bound: int) -> int:
        """The exclusive upper end of :meth:`random_blinder`'s range.

        The product ``blinder * plaintext`` must stay within the signed
        half of the plaintext space, so the blinder stays below
        ``(n // 2) // magnitude_bound`` (and below 2^64, which already
        hides magnitudes thoroughly). A key too small for the bound, one
        that leaves 1 as the only blinder, raises :class:`CryptoError`
        instead of letting the querying party decrypt the unblinded
        value.
        """
        ceiling = (self.public_key.n // 2) // max(magnitude_bound, 1)
        ceiling = min(ceiling, 2**64)
        if ceiling <= 2:
            raise CryptoError(
                f"a {self.public_key.bits}-bit key leaves no room to blind "
                f"values up to {magnitude_bound}; use a larger key"
            )
        return ceiling

    def random_blinder(self, magnitude_bound: int) -> int:
        """A positive multiplicative blinding factor, uniform below
        :meth:`blinder_ceiling`."""
        return self.rng.randrange(1, self.blinder_ceiling(magnitude_bound))
