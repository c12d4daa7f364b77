"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. The subclasses map onto the major
subsystems (data model, hierarchies, anonymization, crypto, protocol).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation or record does not conform to its declared schema."""


class HierarchyError(ReproError):
    """A value generalization hierarchy is malformed or a lookup failed."""


class AnonymizationError(ReproError):
    """An anonymization algorithm could not satisfy its requirement."""


class CryptoError(ReproError):
    """A cryptographic primitive was misused or failed an internal check."""


class ProtocolError(ReproError):
    """A multi-party protocol was driven out of order or received bad data."""


class ConfigurationError(ReproError):
    """A linkage configuration is inconsistent or out of range."""


class PipelineError(ReproError):
    """A linkage run broke an internal invariant.

    Raised when the SMC step's oracle bills a different number of
    invocations than the record pairs its budget leases granted. That is a
    bug in the library or in a custom oracle, never a user configuration
    mistake (those raise :class:`ConfigurationError`).
    """


class NetError(ReproError):
    """A networked protocol run failed (connection, timeout, session)."""


class TransportError(NetError):
    """The connection itself failed: dial, timeout, or mid-stream death.

    Deliberately distinct from its :class:`NetError` siblings — transport
    failures are the *recoverable* kind (reconnect and resume), whereas
    :class:`WireError` / :class:`SessionError` / :class:`HandshakeError`
    mean one side is broken or hostile and retrying cannot help. Recovery
    paths catch exactly ``(ConnectionError, TransportError, OSError)``.
    """


class WireError(NetError):
    """A frame or message violates the ``repro.net`` wire format."""


class HandshakeError(NetError):
    """The peers disagree on protocol name, version, or schema."""


class SessionError(NetError):
    """An SMC session was driven out of order or cannot be resumed."""
