"""SMC session state machines and the server-side batch ledger.

An SMC phase is a sequence of numbered lease batches. Both ends track the
session through an explicit state machine
(:class:`SessionStateMachine`), and the server keeps a bounded ledger of
recently answered batches (:class:`BatchLedger`) so that a batch replayed
after a connection drop is answered from cache — *without* re-running the
oracle, which would inflate the invocation count and (for randomized
backends) could change verdicts.

Resume contract:

- the client sends batches with strictly increasing ``seq`` (1-based) and
  at most one in flight;
- on a drop, the client reconnects (bounded exponential backoff),
  re-sends ``smc_open`` with the same session id — the server answers
  with ``resumed: true`` and the highest acknowledged ``seq`` — and then
  re-sends its unacknowledged batch;
- the server answers a replayed ``seq`` from the ledger, a fresh
  ``seq == acked + 1`` by running the oracle, and anything else with a
  :class:`~repro.errors.SessionError` (the batch fell out of the resume
  window, or the client skipped ahead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SessionError

#: Batches the server keeps for replay. The lockstep client only ever
#: replays its single in-flight batch, so a handful is plenty; the bound
#: keeps a long SMC phase from accumulating per-batch state.
RESUME_WINDOW = 8


class SessionState(enum.Enum):
    """Lifecycle of one SMC session, either side of the wire."""

    NEW = "new"
    OPEN = "open"
    IN_FLIGHT = "in_flight"
    RECOVERING = "recovering"
    CLOSED = "closed"


#: Legal transitions; anything else is a protocol bug worth failing loudly.
_TRANSITIONS: dict[SessionState, tuple[SessionState, ...]] = {
    SessionState.NEW: (SessionState.OPEN,),
    SessionState.OPEN: (SessionState.IN_FLIGHT, SessionState.CLOSED),
    SessionState.IN_FLIGHT: (
        SessionState.OPEN,
        SessionState.RECOVERING,
        SessionState.CLOSED,
    ),
    SessionState.RECOVERING: (
        SessionState.OPEN,
        SessionState.IN_FLIGHT,
        SessionState.CLOSED,
    ),
    SessionState.CLOSED: (),
}


class SessionStateMachine:
    """A tiny validated state machine shared by client and server."""

    def __init__(self, session_id: str):
        self.session_id = session_id
        self.state = SessionState.NEW

    def to(self, state: SessionState) -> None:
        """Transition, or raise :class:`SessionError` if illegal."""
        if state not in _TRANSITIONS[self.state]:
            raise SessionError(
                f"session {self.session_id!r}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state

    def require(self, *states: SessionState) -> None:
        """Assert the session is in one of *states*."""
        if self.state not in states:
            wanted = ", ".join(state.value for state in states)
            raise SessionError(
                f"session {self.session_id!r} is {self.state.value}, "
                f"expected {wanted}"
            )


@dataclass(frozen=True)
class BatchRecord:
    """One answered batch, cached verbatim for replay."""

    seq: int
    #: Per lease: the matching (left_offset, right_offset) pairs, one
    #: ``(m, 2)`` array each.
    matches: tuple[np.ndarray, ...]
    invocations: int
    attribute_comparisons: int
    peer_wire_bytes: int
    channel_messages: int
    channel_bytes: int


@dataclass
class BatchLedger:
    """The server's bounded record of answered batches."""

    window: int = RESUME_WINDOW
    acked: int = 0
    _records: dict[int, BatchRecord] = field(default_factory=dict)

    def record(self, record: BatchRecord) -> None:
        """Store the answer to the next expected batch."""
        if record.seq != self.acked + 1:
            raise SessionError(
                f"ledger expected seq {self.acked + 1}, got {record.seq}"
            )
        self.acked = record.seq
        self._records[record.seq] = record
        stale = record.seq - self.window
        if stale in self._records:
            del self._records[stale]

    def replay(self, seq: int) -> BatchRecord | None:
        """The cached answer for *seq*, or ``None`` when it is the next one.

        Raises :class:`SessionError` for a seq that is neither cached,
        next, nor within the resume window.
        """
        if seq == self.acked + 1:
            return None
        record = self._records.get(seq)
        if record is None:
            raise SessionError(
                f"batch seq {seq} is outside the resume window "
                f"(acked {self.acked}, window {self.window})"
            )
        return record
