""":class:`DataHolderServer` — the networked party runner for a holder.

One server wraps one :class:`repro.protocol.DataHolder`. It anonymizes
and publishes its view at startup, then serves the protocol over TCP:

- ``get_view`` — the public artifact, for the querying party;
- ``resolve`` — map this holder's own matched handles back to record
  indices (the holder-local final step of the paper's protocol);
- ``smc_open`` / ``smc_batch`` / ``smc_close`` — the budgeted comparison
  phase, in budget leases ``(left class_id, right class_id, take)``. The
  server owning the session plays the bridge role: it runs each lease
  over its own columnar records and fetches the peer holder's side over
  a *holder-to-holder* connection (``fetch_records``) — only the first
  ``min(take, class size)`` rows of each right class, the rows the lease
  touches — so raw values flow only between data holders. The querying
  party learns only the matching offsets of each lease;
- ``fetch_records`` — the other end of that holder link. Connections
  that handshook with role ``query`` are refused: there is no code path
  from the querying party to a raw record, same as in-process.

Sessions survive connection drops: state lives on the server object keyed
by session id, and answered batches sit in a bounded
:class:`~repro.net.session.BatchLedger` for replay, so a reconnecting
client resumes from the last acknowledged batch (see
:mod:`repro.net.session` for the contract).
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence

import numpy as np

from repro.anonymize.base import Anonymizer
from repro.crypto.smc.channel import Transcript
from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.data.schema import Relation
from repro.errors import (
    HandshakeError,
    NetError,
    ProtocolError,
    ReproError,
    SessionError,
    TransportError,
    WireError,
)
from repro.linkage.columns import LeaseBatch, RecordColumns
from repro.net.faults import FaultInjector, injector_from_env
from repro.net.session import (
    BatchLedger,
    BatchRecord,
    SessionState,
    SessionStateMachine,
)
from repro.net.transport import (
    DEFAULT_TIMEOUT,
    FramedConnection,
    open_framed_connection,
)
from repro.net.wire import (
    decode_class_rows,
    encode_class_counts,
    encode_lease_matches,
    encode_view,
    error_message,
    hello_message,
    validate_hello,
    validate_request,
    validate_welcome,
    welcome_message,
)
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.protocol import DataHolder

#: How long a serving connection may sit idle between requests. The
#: querying party runs blocking/selection between ``get_view`` and the
#: first batch, so this is deliberately generous.
IDLE_TIMEOUT = 600.0

#: Handshake frames must arrive promptly.
HANDSHAKE_TIMEOUT = 10.0


def schema_spec(schema) -> list:
    """The wire rendering of a schema: ``[[name, kind], ...]``."""
    return [
        [attribute.name, "continuous" if attribute.is_continuous else "categorical"]
        for attribute in schema
    ]


class _ServerSession:
    """One SMC session hosted by this server (the bridge role)."""

    def __init__(self, session_id: str, rule_obj, oracle, peer: dict):
        self.fsm = SessionStateMachine(session_id)
        self.rule = rule_obj
        self.oracle = oracle
        self.peer_spec = peer
        self.peer_conn: FramedConnection | None = None
        self.peer_transcript = Transcript()
        self.ledger = BatchLedger()
        self.fsm.to(SessionState.OPEN)

    def channel_estimate(self) -> tuple[int, int]:
        """The oracle's protocol-level (messages, bytes) estimate."""
        session = getattr(self.oracle, "session", None)
        if session is None:
            return (0, 0)
        transcript = session.transcript
        return (transcript.messages, transcript.bytes_sent)


class DataHolderServer:
    """Serve one data holder's side of the three-party protocol."""

    def __init__(
        self,
        name: str,
        relation: Relation,
        anonymizer: Anonymizer,
        qids: Sequence[str],
        k: int,
        *,
        oracle_factory=CountingPlaintextOracle,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Telemetry = NOOP_TELEMETRY,
        fault: FaultInjector | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.name = name
        self.host = host
        self.port = port
        self._relation = relation
        self._anonymizer = anonymizer
        self._qids = tuple(qids)
        self._k = k
        self._oracle_factory = oracle_factory
        self._telemetry = telemetry
        self._fault = fault if fault is not None else injector_from_env()
        self._timeout = timeout
        self._holder: DataHolder | None = None
        self._view = None
        self._server: asyncio.base_events.Server | None = None
        self._sessions: dict[str, _ServerSession] = {}

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> "DataHolderServer":
        """Publish the view and start accepting connections."""
        with self._telemetry.span("net.publish", party=self.name, k=self._k):
            self._holder = DataHolder(self.name, self._relation)
            self._view = self._holder.publish(
                self._anonymizer, self._qids, self._k
            )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        for session in self._sessions.values():
            if session.peer_conn is not None:
                await session.peer_conn.close()
        self._sessions.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        connection = FramedConnection(
            reader,
            writer,
            telemetry=self._telemetry,
            fault=self._fault,
            timeout=self._timeout,
        )
        try:
            role = await self._handshake(connection)
            if role is None:
                return
            while True:
                message = await connection.receive(IDLE_TIMEOUT)
                try:
                    kind, fields = validate_request(message)
                    response = await self._dispatch(kind, fields, role)
                except WireError as error:
                    response = error_message("bad_frame", str(error))
                except SessionError as error:
                    response = error_message("bad_session", str(error))
                except ReproError as error:
                    response = error_message("protocol", str(error))
                await connection.send(response)
        except (ConnectionError, TransportError, OSError):
            pass  # peer died or idled out; session state survives for resume
        except WireError as error:
            # Frame-level corruption: answer once, then drop the
            # connection — framing cannot be resynchronized after garbage.
            try:
                await connection.send(error_message("bad_frame", str(error)))
            except (ConnectionError, TransportError, OSError):
                pass
        finally:
            await connection.close()

    async def _handshake(self, connection: FramedConnection) -> str | None:
        """Run the server side of the versioned handshake.

        Returns the peer's role, or ``None`` when the hello was rejected
        (the rejection reason has been sent back as an error frame).
        """
        message = await connection.receive(HANDSHAKE_TIMEOUT)
        try:
            if message.get("type") != "hello":
                raise WireError(
                    f"expected hello, got {message.get('type')!r}"
                )
            validate_hello(message)
        except WireError as error:
            code = (
                "version_mismatch"
                if "version mismatch" in str(error)
                else "handshake_rejected"
            )
            await connection.send(error_message(code, str(error)))
            return None
        await connection.send(
            welcome_message(
                self.name,
                schema_spec(self._holder.schema),
                len(self._relation),
            )
        )
        return message["role"]

    # -- request dispatch -------------------------------------------------
    async def _dispatch(self, kind: str, fields: dict, role: str) -> dict:
        """Answer one request; *fields* are its decoded required fields."""
        if kind == "get_view":
            return {"type": "view", "view": encode_view(self._view)}
        if kind == "resolve":
            return self._handle_resolve(fields)
        if kind == "fetch_records":
            if role != "holder":
                return error_message(
                    "forbidden",
                    "fetch_records is a holder-to-holder request; the "
                    "querying party never sees raw values",
                )
            return self._handle_fetch(fields)
        if kind == "smc_open":
            return await self._handle_open(fields)
        if kind == "smc_batch":
            return await self._handle_batch(fields)
        if kind == "smc_close":
            return await self._handle_close(fields)
        raise WireError(f"unhandled request type {kind!r}")  # pragma: no cover

    def _handle_resolve(self, fields: dict) -> dict:
        indices = self._holder.resolve(fields["handles"])
        return {"type": "resolved", "indices": indices.tolist()}

    def _handle_fetch(self, fields: dict) -> dict:
        names = fields["names"]
        schema = self._holder.schema
        for name in names:
            if name not in schema:
                raise ProtocolError(
                    f"attribute {name!r} is not in {self.name!r}'s schema"
                )
        return {
            "type": "records",
            "rows": [
                self._holder._class_values(class_id, count, names)
                for class_id, count in fields["classes"].tolist()
            ],
        }

    async def _handle_open(self, fields: dict) -> dict:
        session_id = fields["session"]
        rule = fields["rule"]
        existing = self._sessions.get(session_id)
        if existing is not None:
            if rule.attributes != existing.rule.attributes:
                raise SessionError(
                    f"session {session_id!r} was opened with a different rule"
                )
            return {
                "type": "smc_opened",
                "session": session_id,
                "resumed": True,
                "acked": existing.ledger.acked,
            }
        oracle = self._oracle_factory(rule, self._holder.schema)
        self._sessions[session_id] = _ServerSession(
            session_id, rule, oracle, fields["peer"]
        )
        self._telemetry.counter("net.sessions_opened").add(1)
        return {
            "type": "smc_opened",
            "session": session_id,
            "resumed": False,
            "acked": 0,
        }

    def _session(self, session_id: str) -> _ServerSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        return session

    async def _handle_batch(self, fields: dict) -> dict:
        session = self._session(fields["session"])
        seq = fields["seq"]
        record = session.ledger.replay(seq)
        if record is None:
            session.fsm.require(SessionState.OPEN, SessionState.IN_FLIGHT)
            if session.fsm.state is SessionState.OPEN:
                session.fsm.to(SessionState.IN_FLIGHT)
            record = await self._run_batch(session, seq, fields["leases"])
            session.ledger.record(record)
        return {
            "type": "smc_result",
            "session": session.fsm.session_id,
            "seq": record.seq,
            "matches": encode_lease_matches(record.matches),
            "invocations": record.invocations,
            "attribute_comparisons": record.attribute_comparisons,
            "peer_wire_bytes": record.peer_wire_bytes,
            "channel_messages": record.channel_messages,
            "channel_bytes": record.channel_bytes,
        }

    async def _run_batch(
        self,
        session: _ServerSession,
        seq: int,
        leases: np.ndarray,
    ) -> BatchRecord:
        """Run the oracle over one fresh batch of leases, an ``(n, 3)``
        array of ``[left class_id, right class_id, take]`` rows."""
        holder = self._holder
        names = list(session.rule.names)
        left = holder._classes_rows(leases[:, 0])
        # One peer round trip per batch: for each distinct right class,
        # the rows the batch's leases touch (the first max-take of them).
        wanted: dict[int, int] = {}
        for right_class, take in leases[:, 1:].tolist():
            wanted[right_class] = max(wanted.get(right_class, 0), take)
        classes = list(wanted.items())
        fetched = await self._fetch_from_peer(session, names, classes)
        spans: dict[int, tuple[int, int]] = {}
        rows: list[tuple] = []
        for (class_id, _), class_rows in zip(classes, fetched):
            spans[class_id] = (len(rows), len(class_rows))
            rows.extend(class_rows)
        right = RecordColumns.from_rows(holder.schema, names, rows)
        right_starts, right_sizes = np.array(
            [spans[class_id] for class_id in leases[:, 1].tolist()], dtype=np.int64
        ).reshape(-1, 2).T
        # Each lease reads the first min(take, fetched) rows of its class.
        batch = LeaseBatch(
            *left,
            np.arange(len(rows)),
            right_starts,
            np.minimum(leases[:, 2], right_sizes),
            leases[:, 2],
        )
        oracle = session.oracle
        matches = oracle.compare_block(holder._columns(), right, batch)
        messages, channel_bytes = session.channel_estimate()
        self._telemetry.counter("net.batches_served").add(1)
        return BatchRecord(
            seq=seq,
            matches=tuple(matches),
            invocations=oracle.invocations,
            attribute_comparisons=oracle.attribute_comparisons,
            peer_wire_bytes=session.peer_transcript.bytes_on_wire,
            channel_messages=messages,
            channel_bytes=channel_bytes,
        )

    async def _fetch_from_peer(
        self,
        session: _ServerSession,
        names: list[str],
        classes: list[tuple[int, int]],
    ) -> list[list[tuple]]:
        """Fetch rule projections from the peer holder, reconnecting once.

        *classes* lists ``(class_id, count)``; the peer answers with the
        first ``min(count, class size)`` rows of each. The holder link is
        subject to the same faults as every other connection, so a dropped
        peer socket is re-dialed with backoff and the fetch retried —
        fetches are read-only, hence idempotent.
        """
        if not classes:
            return []
        request = {
            "type": "fetch_records",
            "names": names,
            "classes": encode_class_counts(classes),
        }
        last_error: Exception | None = None
        for attempt in range(3):
            try:
                connection = await self._peer_connection(session)
                reply = await connection.request(request)
            except (ConnectionError, TransportError, OSError) as error:
                last_error = error
                session.peer_conn = None
                self._telemetry.counter("net.peer_reconnects").add(1)
                continue
            if reply.get("type") == "error":
                raise ProtocolError(
                    f"peer {session.peer_spec['party']!r} rejected "
                    f"fetch_records: {reply.get('message')}"
                )
            if reply.get("type") != "records" or "rows" not in reply:
                raise WireError("peer sent a malformed records reply")
            return decode_class_rows(
                reply["rows"], [count for _, count in classes], len(names)
            )
        raise NetError(
            f"holder link to {session.peer_spec['party']!r} failed after "
            f"3 attempts: {last_error}"
        )

    async def _peer_connection(
        self, session: _ServerSession
    ) -> FramedConnection:
        """The session's holder-to-holder link, dialing on demand."""
        if session.peer_conn is not None and not session.peer_conn.is_closing:
            return session.peer_conn
        peer = session.peer_spec
        connection = await open_framed_connection(
            peer["host"],
            peer["port"],
            telemetry=self._telemetry,
            transcript=session.peer_transcript,
            timeout=self._timeout,
        )
        welcome = await connection.request(
            hello_message("holder", self.name), HANDSHAKE_TIMEOUT
        )
        if welcome.get("type") == "error":
            raise HandshakeError(
                f"peer {peer['party']!r} rejected the handshake: "
                f"{welcome.get('message')}"
            )
        validate_welcome(welcome)
        if welcome["schema"] != schema_spec(self._holder.schema):
            raise HandshakeError(
                f"peer {peer['party']!r} serves a different schema; "
                "holders must share one"
            )
        session.peer_conn = connection
        return connection

    async def _handle_close(self, fields: dict) -> dict:
        session = self._session(fields["session"])
        messages, channel_bytes = session.channel_estimate()
        reply = {
            "type": "smc_closed",
            "session": session.fsm.session_id,
            "invocations": session.oracle.invocations,
            "attribute_comparisons": session.oracle.attribute_comparisons,
            "peer_wire_bytes": session.peer_transcript.bytes_on_wire,
            "channel_messages": messages,
            "channel_bytes": channel_bytes,
        }
        session.fsm.to(SessionState.CLOSED)
        if session.peer_conn is not None:
            await session.peer_conn.close()
        del self._sessions[session.fsm.session_id]
        return reply
