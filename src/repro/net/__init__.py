"""``repro.net``: the three-party protocol over real sockets.

The in-process simulation (:mod:`repro.protocol`) passes Python objects
across a pretend party boundary; this package executes the same protocol
between genuinely separate parties connected by TCP:

- :mod:`repro.net.wire` — length-prefixed framing and a strict, versioned
  JSON wire codec for every boundary artifact (published views, match
  rules, budget leases and their matched offsets, ``(class_id, offset)``
  handles, Paillier ciphertexts);
- :mod:`repro.net.transport` — asyncio framed connections with
  per-message timeouts, measured byte accounting, fault injection, and
  bounded exponential-backoff reconnects;
- :mod:`repro.net.session` — the SMC session state machines (client and
  server side) that let an interrupted comparison phase resume from the
  last acknowledged lease batch;
- :mod:`repro.net.server` — :class:`DataHolderServer`, the party runner
  for alice and bob;
- :mod:`repro.net.client` — :class:`QueryingPartyClient` and
  :class:`RemoteSMCBridge`, which drive blocking/selection/SMC remotely
  through the unchanged :class:`repro.protocol.QueryingParty` logic;
- :mod:`repro.net.cli` — the ``repro-party`` command.

The networked run is bit-identical to the in-process simulation: the
querying party reuses :class:`repro.protocol.QueryingParty` verbatim and
only the bridge is remote.
"""

from repro.net.client import (
    QueryingPartyClient,
    RemoteLinkageOutcome,
    RemoteParty,
    RemoteSMCBridge,
    parse_remote_spec,
)
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.server import DataHolderServer
from repro.net.transport import NetRuntime
from repro.net.wire import PROTOCOL_NAME, PROTOCOL_VERSION

__all__ = [
    "DataHolderServer",
    "FaultInjector",
    "FaultPlan",
    "NetRuntime",
    "PROTOCOL_NAME",
    "PROTOCOL_VERSION",
    "QueryingPartyClient",
    "RemoteLinkageOutcome",
    "RemoteParty",
    "RemoteSMCBridge",
    "parse_remote_spec",
]
