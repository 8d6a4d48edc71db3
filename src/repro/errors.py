"""Exception hierarchy shared by every repro subpackage.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Subsystems define narrower classes
here (rather than in their own modules) to avoid circular imports between
layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration file or object is malformed or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an illegal operation."""


class NetworkError(ReproError):
    """A network-layer failure (unknown host, link down, packet too large)."""


class TransportError(ReproError):
    """A transport-layer failure (channel closed, reassembly error)."""


class DslError(ReproError):
    """Base class for stability-frontier DSL errors."""


class DslSyntaxError(DslError):
    """The predicate source failed lexing or parsing.

    Carries the offending position so tools can point at the error.
    """

    def __init__(self, message: str, position: int = -1, source: str = ""):
        super().__init__(message)
        self.position = position
        self.source = source

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0 and self.source:
            pointer = " " * self.position + "^"
            return f"{base}\n  {self.source}\n  {pointer}"
        return base


class DslSemanticError(DslError):
    """The predicate parsed but refers to unknown nodes/types or misuses
    operators (e.g. set difference between an integer and a node set)."""


class DslEvaluationError(DslError):
    """A compiled predicate failed at evaluation time (e.g. a runtime K
    parameter fell outside the operand count)."""


class PredicateNotFound(ReproError):
    """A predicate key was used before being registered."""


class StabilizerError(ReproError):
    """Stabilizer core runtime error."""


class NotPrimaryError(StabilizerError):
    """A write was attempted at a node that does not own the data item."""


class BackpressureError(StabilizerError):
    """Admitting a message would overflow the bounded send buffer.

    Raised by ``Stabilizer.send`` when
    the WAN cannot drain fast enough for reclamation to keep up; carries
    how full the buffer is so callers can log or shed load sensibly.
    """

    def __init__(self, message: str, buffered_bytes: int = 0, max_bytes: int = 0):
        super().__init__(message)
        self.buffered_bytes = buffered_bytes
        self.max_bytes = max_bytes


class AdmissionError(BackpressureError):
    """Edge admission refused a message before it was sequenced.

    Raised by ``Stabilizer.send`` when an
    :class:`~repro.core.admission.AdmissionController` is attached and the
    message cannot be admitted right now.  ``reason`` is ``"rate"`` (token
    bucket empty), ``"breaker"`` (too many peer circuit breakers open) or
    ``"queue_full"`` (bounded admission queue at capacity).  The message
    was *never* admitted — refusing here is the whole point: nothing that
    was accepted is ever dropped (invariant 13).
    """

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class StorageError(ReproError):
    """Object-store or log failure (corruption, missing version)."""


class DiskFaultError(StorageError):
    """An injected (or real) storage-device failure.

    ``kind`` names the fault (``"enospc"``, ``"eio_write"``,
    ``"torn_write"``, ``"fsync_fail"``, ``"fsync_torn"``); ``written`` is
    how many bytes of the attempted write landed before the fault — a
    non-zero value means the file now ends in a torn, untrusted tail.
    """

    def __init__(self, message: str, kind: str = "eio", written: int = 0):
        super().__init__(message)
        self.kind = kind
        self.written = written


class LogCorruptionError(StorageError):
    """A checksummed log found mid-log corruption while recovering in
    strict mode (bit rot, not a torn tail — see ``AppendLog``)."""


class PaxosError(ReproError):
    """Paxos replica failure (no leader, not enough acceptors)."""


class PubSubError(ReproError):
    """Pub/sub broker or client failure."""


class QuorumError(ReproError):
    """A quorum operation could not assemble the required replica set."""
