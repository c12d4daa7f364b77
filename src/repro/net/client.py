"""The networked querying party: remote views, remote SMC, same result.

The design invariant: the decision logic is :class:`repro.protocol
.QueryingParty`, byte for byte the same code the in-process simulation
runs. Only the *bridge* is remote — :class:`RemoteSMCBridge` implements
the same ``compare_many``/``invocations`` surface as
:class:`repro.protocol.SMCBridge`, shipping batches of budget leases to
the holder that plays the bridge role and getting back each lease's
matching offsets. That is what makes the networked
:class:`~repro.protocol.ProtocolOutcome` bit-identical to the simulated
one (pinned by ``tests/test_net_e2e.py``).

Fault tolerance: every request runs under a per-message timeout; a dead
connection is re-dialed with bounded exponential backoff, the session is
re-opened (``resumed: true``), and the unacknowledged batch is replayed —
the server answers it from its ledger if it had already been processed.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from repro.crypto.smc.channel import Transcript
from repro.errors import (
    ConfigurationError,
    HandshakeError,
    NetError,
    ProtocolError,
    TransportError,
    WireError,
)
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import SelectionHeuristic
from repro.linkage.strategies import LeftoverStrategy, MaximizePrecision
from repro.net.session import SessionState, SessionStateMachine
from repro.net.transport import (
    DEFAULT_TIMEOUT,
    BackoffPolicy,
    FramedConnection,
    NetRuntime,
    open_framed_connection,
)
from repro.net.wire import (
    decode_lease_matches,
    decode_view,
    encode_handle,
    encode_leases,
    encode_rule,
    hello_message,
    validate_welcome,
)
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.protocol import (
    Handle,
    Lease,
    ProtocolOutcome,
    PublishedView,
    QueryingParty,
    verified_match_handles,
)

#: Budget leases per ``smc_batch`` frame. A frame's holder-link fetch and
#: result grow with its leases' rows and matches, so this keeps frames far
#: below the limit while amortizing round trips.
DEFAULT_BATCH_SIZE = 256

#: Resume attempts per batch before the run is declared failed.
MAX_RESUME_ATTEMPTS = 5


@dataclass(frozen=True)
class RemoteParty:
    """Where one data holder listens."""

    name: str
    host: str
    port: int


def parse_remote_spec(spec: str) -> dict[str, RemoteParty]:
    """Parse ``alice=HOST:PORT,bob=HOST:PORT`` (both parties required)."""
    parties: dict[str, RemoteParty] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, address = part.partition("=")
        host, _, port_text = address.rpartition(":")
        if not name or not host or not port_text:
            raise ConfigurationError(
                f"bad --remote entry {part!r}; expected NAME=HOST:PORT"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigurationError(
                f"bad port {port_text!r} in --remote entry {part!r}"
            ) from None
        parties[name] = RemoteParty(name, host, port)
    missing = {"alice", "bob"} - set(parties)
    if missing:
        raise ConfigurationError(
            f"--remote must name both holders; missing {sorted(missing)}"
        )
    return parties


class PartyLink:
    """A synchronous, reconnecting request channel to one party."""

    def __init__(
        self,
        party: RemoteParty,
        runtime: NetRuntime,
        *,
        telemetry: Telemetry = NOOP_TELEMETRY,
        transcript: Transcript | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        backoff: BackoffPolicy | None = None,
    ):
        self.party = party
        self._runtime = runtime
        self._telemetry = telemetry
        self._transcript = transcript
        self._timeout = timeout
        self._backoff = backoff or BackoffPolicy()
        self._connection: FramedConnection | None = None
        self.schema_spec: list | None = None

    def connect(self) -> "PartyLink":
        """Dial and handshake (role ``query``)."""
        self._runtime.call(self._connect())
        return self

    async def _connect(self) -> None:
        with self._telemetry.span("net.connect", party=self.party.name):
            connection = await open_framed_connection(
                self.party.host,
                self.party.port,
                telemetry=self._telemetry,
                transcript=self._transcript,
                timeout=self._timeout,
                backoff=self._backoff,
            )
        with self._telemetry.span("net.handshake", party=self.party.name):
            welcome = await connection.request(
                hello_message("query", "query")
            )
            if welcome.get("type") == "error":
                await connection.close()
                raise HandshakeError(
                    f"{self.party.name} rejected the handshake "
                    f"[{welcome.get('code')}]: {welcome.get('message')}"
                )
            validate_welcome(welcome)
        self._connection = connection
        self.schema_spec = welcome["schema"]

    def request(self, message: dict, *, retry: bool = False) -> dict:
        """One lockstep request/response; raises on error replies.

        With ``retry=True`` a transport failure reconnects and re-sends —
        for *idempotent* requests only (``get_view``, ``resolve``); the
        SMC phase has its own seq-numbered resume in
        :class:`RemoteSMCBridge` because a blind re-send could double-run
        the oracle.
        """
        attempts = MAX_RESUME_ATTEMPTS if retry else 1
        for attempt in range(attempts):
            try:
                reply = self._runtime.call(self._request(message))
            except (ConnectionError, TransportError, OSError):
                if attempt + 1 >= attempts:
                    raise
                self.reconnect()
                continue
            break
        if reply.get("type") == "error":
            code = reply.get("code")
            detail = (
                f"{self.party.name} answered [{code}]: {reply.get('message')}"
            )
            if code == "bad_frame":
                raise WireError(detail)
            raise ProtocolError(detail)
        return reply

    async def _request(self, message: dict) -> dict:
        if self._connection is None:
            raise TransportError(f"link to {self.party.name} is not connected")
        return await self._connection.request(message)

    def reconnect(self) -> None:
        """Drop the current connection and dial + handshake again."""
        self._runtime.call(self._drop())
        self._telemetry.counter("net.reconnects").add(1)
        self._runtime.call(self._connect())

    async def _drop(self) -> None:
        if self._connection is not None:
            await self._connection.close()
            self._connection = None

    def close(self) -> None:
        self._runtime.call(self._drop())


class RemoteSMCBridge:
    """Drop-in for :class:`repro.protocol.SMCBridge` over a network link.

    The bridge-side holder (alice) owns the oracle; this object ships
    lease batches, checks each lease's matching offsets against the
    published class sizes, tracks the session state machine, and resumes
    after drops. ``invocations`` mirrors the server's cumulative count,
    so the querying party's cost accounting is the server's ground truth.
    """

    def __init__(
        self,
        link: PartyLink,
        peer: RemoteParty,
        rule: MatchRule,
        left_view: PublishedView,
        right_view: PublishedView,
        *,
        session_id: str | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._link = link
        self._peer = peer
        self._rule_wire = encode_rule(rule)
        self._left_sizes = {c.class_id: c.size for c in left_view.classes}
        self._right_sizes = {c.class_id: c.size for c in right_view.classes}
        self._batch_size = batch_size
        self._telemetry = telemetry
        self.session_id = session_id or f"smc-{uuid.uuid4().hex[:12]}"
        self._fsm = SessionStateMachine(self.session_id)
        self._seq = 0
        self.invocations = 0
        self.attribute_comparisons = 0
        self.peer_wire_bytes = 0
        self.channel_messages = 0
        self.channel_bytes = 0

    def open(self) -> "RemoteSMCBridge":
        """Open (or re-open) the session on the bridge holder."""
        reply = self._link.request(
            {
                "type": "smc_open",
                "session": self.session_id,
                "rule": self._rule_wire,
                "peer": {
                    "party": self._peer.name,
                    "host": self._peer.host,
                    "port": self._peer.port,
                },
            }
        )
        if reply.get("type") != "smc_opened":
            raise ProtocolError(
                f"expected smc_opened, got {reply.get('type')!r}"
            )
        if self._fsm.state is SessionState.NEW:
            self._fsm.to(SessionState.OPEN)
        return self

    def compare_many(
        self, leases: list[Lease]
    ) -> list[list[tuple[int, int]]]:
        """Run *leases* remotely, ``batch_size`` per frame, resuming on drops.

        Returns, per lease, its matching ``(left_offset, right_offset)``
        pairs in row-major order, as :meth:`repro.protocol.SMCBridge
        .compare_many` does.
        """
        results: list[list[tuple[int, int]]] = []
        for start in range(0, len(leases), self._batch_size):
            results.extend(
                self._send_batch(leases[start : start + self._batch_size])
            )
        return results

    def _send_batch(self, leases: list[Lease]) -> list[list[tuple[int, int]]]:
        try:
            shapes = [
                (
                    self._left_sizes[lease.left_class],
                    self._right_sizes[lease.right_class],
                )
                for lease in leases
            ]
        except KeyError as error:
            raise ProtocolError(
                f"lease names class {error.args[0]}, which is not in the "
                "published views"
            ) from None
        self._fsm.require(SessionState.OPEN, SessionState.IN_FLIGHT)
        if self._fsm.state is SessionState.OPEN:
            self._fsm.to(SessionState.IN_FLIGHT)
        self._seq += 1
        message = {
            "type": "smc_batch",
            "session": self.session_id,
            "seq": self._seq,
            "leases": encode_leases(leases),
        }
        for attempt in range(MAX_RESUME_ATTEMPTS):
            try:
                reply = self._link.request(message)
            except (ConnectionError, TransportError, OSError):
                with self._telemetry.span(
                    "net.resume", session=self.session_id, seq=self._seq
                ):
                    self._fsm.to(SessionState.RECOVERING)
                    self._link.reconnect()
                    self.open()  # resumed: server replays from its ledger
                    self._fsm.to(SessionState.IN_FLIGHT)
                continue
            return self._accept_result(reply, leases, shapes)
        raise NetError(
            f"session {self.session_id!r} could not deliver batch "
            f"{self._seq} after {MAX_RESUME_ATTEMPTS} resume attempts"
        )

    def _accept_result(
        self, reply: dict, leases: list[Lease], shapes
    ) -> list[list[tuple[int, int]]]:
        if reply.get("type") != "smc_result":
            raise ProtocolError(
                f"expected smc_result, got {reply.get('type')!r}"
            )
        matches = decode_lease_matches(reply.get("matches"), leases, shapes)
        self._absorb_costs(reply)
        self._telemetry.histogram("net.batch_pairs").observe(
            sum(lease.take for lease in leases)
        )
        return matches

    def _absorb_costs(self, reply: dict) -> None:
        """Mirror the server's cumulative cost counters locally."""
        for attribute, key in (
            ("invocations", "invocations"),
            ("attribute_comparisons", "attribute_comparisons"),
            ("peer_wire_bytes", "peer_wire_bytes"),
            ("channel_messages", "channel_messages"),
            ("channel_bytes", "channel_bytes"),
        ):
            value = reply.get(key)
            if isinstance(value, int) and not isinstance(value, bool):
                setattr(self, attribute, value)
        self._telemetry.counter("smc.record_pair_comparisons").set(
            self.invocations
        )
        self._telemetry.counter("net.peer_bytes_on_wire").set(
            self.peer_wire_bytes
        )
        if self.channel_bytes:
            self._telemetry.counter("channel.messages").set(
                self.channel_messages
            )
            self._telemetry.counter("channel.bytes_sent").set(
                self.channel_bytes
            )

    def close(self) -> None:
        """Close the session; absorbs the server's final cost counters."""
        if self._fsm.state is SessionState.CLOSED:
            return
        if self._fsm.state is SessionState.NEW:
            self._fsm.to(SessionState.OPEN)
        try:
            reply = self._link.request(
                {"type": "smc_close", "session": self.session_id}
            )
            if reply.get("type") == "smc_closed":
                self._absorb_costs(reply)
        except (ConnectionError, TransportError, OSError):
            pass  # closing is best-effort; the outcome is already local
        self._fsm.to(SessionState.CLOSED)


@dataclass
class RemoteLinkageOutcome:
    """What a networked run hands back to the operator."""

    outcome: ProtocolOutcome
    verified_matches: list[tuple[int, int]]
    left_view: PublishedView
    right_view: PublishedView
    transcript: Transcript
    peer_wire_bytes: int = 0
    channel_bytes: int = 0
    reconnects: int = 0

    @property
    def bytes_on_wire(self) -> int:
        """Measured frame bytes: querying-party links plus holder link."""
        return self.transcript.bytes_on_wire + self.peer_wire_bytes

    def summary(self) -> str:
        """Multi-line human-readable report (mirrors the local CLI's)."""
        outcome = self.outcome
        lines = [
            f"total pairs          : {outcome.total_pairs}",
            f"blocking efficiency  : {outcome.blocking_efficiency:.4%}",
            f"  matched by blocking: {outcome.blocked_match_pairs}",
            f"  mismatched         : {outcome.blocked_nonmatch_pairs}",
            f"  unknown            : {outcome.unknown_pairs}",
            f"SMC invocations      : {outcome.smc_invocations}",
            f"  matches found      : {len(outcome.matched_handles)}",
            f"leftover pairs       : {outcome.leftover_pairs}",
            f"verified matches     : {len(self.verified_matches)}",
            f"bytes on wire        : {self.bytes_on_wire}"
            f" (channel estimate: {self.channel_bytes})",
        ]
        if self.reconnects:
            lines.append(f"reconnects           : {self.reconnects}")
        return "\n".join(lines)


class QueryingPartyClient:
    """Drive the full three-party protocol against remote holders.

    ``alice`` plays the bridge role (owns the oracle and the holder link
    to ``bob``); the decision logic is the unchanged
    :class:`repro.protocol.QueryingParty`, which records its ``blocking``,
    ``select``, ``linkage.smc`` and ``linkage.leftovers`` spans on this
    client's telemetry, inside ``net.smc``.
    """

    def __init__(
        self,
        rule: MatchRule,
        alice: RemoteParty,
        bob: RemoteParty,
        *,
        allowance: float = 0.015,
        heuristic: SelectionHeuristic | None = None,
        strategy: LeftoverStrategy = MaximizePrecision(),
        batch_size: int = DEFAULT_BATCH_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
        telemetry: Telemetry = NOOP_TELEMETRY,
        runtime: NetRuntime | None = None,
    ):
        self.rule = rule
        self.alice = alice
        self.bob = bob
        self.allowance = allowance
        self.heuristic = heuristic
        self.strategy = strategy
        self.batch_size = batch_size
        self.timeout = timeout
        self.telemetry = telemetry
        self._runtime = runtime
        self.transcript = Transcript()
        if telemetry.enabled:
            self.transcript.bind_telemetry(telemetry)

    def run(self) -> RemoteLinkageOutcome:
        """Execute handshake, views, blocking, budgeted SMC, resolution."""
        owns_runtime = self._runtime is None
        runtime = self._runtime or NetRuntime()
        if owns_runtime:
            runtime.start()
        links: list[PartyLink] = []
        bridge: RemoteSMCBridge | None = None
        try:
            with self.telemetry.span(
                "net.linkage", alice=f"{self.alice.host}:{self.alice.port}",
                bob=f"{self.bob.host}:{self.bob.port}",
            ):
                alice_link = self._link(runtime, self.alice)
                bob_link = self._link(runtime, self.bob)
                links = [alice_link, bob_link]
                if alice_link.schema_spec != bob_link.schema_spec:
                    raise HandshakeError(
                        "holders disagree on the record schema"
                    )
                left_view = self._fetch_view(alice_link)
                right_view = self._fetch_view(bob_link)
                bridge = RemoteSMCBridge(
                    alice_link,
                    self.bob,
                    self.rule,
                    left_view,
                    right_view,
                    batch_size=self.batch_size,
                    telemetry=self.telemetry,
                ).open()
                party = QueryingParty(
                    self.rule,
                    allowance=self.allowance,
                    heuristic=self.heuristic,
                    strategy=self.strategy,
                    telemetry=self.telemetry,
                )
                with self.telemetry.span("net.smc", session=bridge.session_id):
                    outcome = party.link(left_view, right_view, bridge)
                bridge.close()
                with self.telemetry.span("net.resolve"):
                    verified = self._resolve_matches(
                        alice_link, bob_link, outcome, left_view, right_view
                    )
            return RemoteLinkageOutcome(
                outcome=outcome,
                verified_matches=verified,
                left_view=left_view,
                right_view=right_view,
                transcript=self.transcript,
                peer_wire_bytes=bridge.peer_wire_bytes,
                channel_bytes=bridge.channel_bytes,
                reconnects=self.telemetry.counter("net.reconnects").value,
            )
        finally:
            for link in links:
                try:
                    link.close()
                except (ConnectionError, TransportError, OSError):
                    pass
            if owns_runtime:
                runtime.stop()

    def _link(self, runtime: NetRuntime, party: RemoteParty) -> PartyLink:
        return PartyLink(
            party,
            runtime,
            telemetry=self.telemetry,
            transcript=self.transcript,
            timeout=self.timeout,
        ).connect()

    def _fetch_view(self, link: PartyLink) -> PublishedView:
        with self.telemetry.span("net.get_view", party=link.party.name):
            reply = link.request({"type": "get_view"}, retry=True)
            if reply.get("type") != "view" or "view" not in reply:
                raise ProtocolError(
                    f"{link.party.name} sent a malformed view reply"
                )
            view = decode_view(reply["view"])
        self.telemetry.counter(f"net.classes.{link.party.name}").set(
            len(view.classes)
        )
        return view

    def _resolve_matches(
        self,
        alice_link: PartyLink,
        bob_link: PartyLink,
        outcome: ProtocolOutcome,
        left_view: PublishedView,
        right_view: PublishedView,
    ) -> list[tuple[int, int]]:
        """Each holder resolves its own side of the verified handles."""
        handles = verified_match_handles(outcome, left_view, right_view)
        if not handles:
            return []
        left_indices = self._resolve_side(
            alice_link, [pair[0] for pair in handles]
        )
        right_indices = self._resolve_side(
            bob_link, [pair[1] for pair in handles]
        )
        return sorted(set(zip(left_indices, right_indices)))

    def _resolve_side(
        self, link: PartyLink, handles: list[Handle]
    ) -> list[int]:
        """Resolve handles through one holder, deduplicating on the wire."""
        unique = list(dict.fromkeys(handles))
        reply = link.request(
            {
                "type": "resolve",
                "handles": [encode_handle(handle) for handle in unique],
            },
            retry=True,
        )
        if reply.get("type") != "resolved":
            raise ProtocolError(
                f"{link.party.name} sent a malformed resolve reply"
            )
        indices = reply.get("indices")
        if not isinstance(indices, list) or len(indices) != len(unique):
            raise WireError(
                f"{link.party.name} resolved {len(unique)} handles into "
                f"{len(indices) if isinstance(indices, list) else 'no'} indices"
            )
        for index in indices:
            if not isinstance(index, int) or isinstance(index, bool):
                raise WireError("resolved index is not an integer")
        lookup = dict(zip(unique, indices))
        return [lookup[handle] for handle in handles]
