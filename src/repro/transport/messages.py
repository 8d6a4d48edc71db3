"""Control and strategy frames, and payload sizing.

Frames know their own *wire size* (a fixed binary header plus their
entries) so the network layer charges realistic bandwidth.  Each also has
an ``encode``/``decode`` pair for a binary wire format; nothing in the
simulated network calls them, since it carries frame objects.  Data
messages are not frames of this module: they travel as payloads on the
FIFO channels, a coalesced run paying one ``BATCH_ENTRY`` per message (see
:mod:`repro.core.dataplane`).  Large experiments use
:class:`SyntheticPayload`, which carries only a length.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple, Union

from repro.errors import TransportError

CONTROL_HEADER = struct.Struct("!BHH")  # kind, node-index, entry count
CONTROL_ENTRY = struct.Struct("!HQ")  # type-id, seq
RESUME_HEADER = struct.Struct("!BHH")  # kind, node-index, entry count
RESUME_ENTRY = struct.Struct("!HQ")  # origin-index, highest received seq
BATCH_HEADER = struct.Struct("!BHH")  # kind, origin-index, message count
BATCH_ENTRY = struct.Struct("!QI")  # seq, payload-len

KIND_CONTROL = 3
KIND_RESUME = 4
KIND_CONTROL_BATCH = 6
KIND_SEQ_REPORT = 7
KIND_SEQ_STABLE = 8
KIND_INTEREST = 10

# Strategy frames (see repro.core.strategy_sequencer).
SEQ_HEADER = struct.Struct("!BHH")  # kind, node-index, entry count
SEQ_ENTRY = struct.Struct("!HHQ")  # origin-index, type-id, seq
INTEREST_HEADER = struct.Struct("!BHIH")  # kind, node-index, version, origin count
INTEREST_ENTRY = struct.Struct("!H")  # origin-index


class SyntheticPayload:
    """A payload that has a length but no bytes.

    The trace-driven experiment sends ≈517 k × 8 KB messages; materializing
    them would need ~4 GB.  A :class:`SyntheticPayload` stands in for
    "``length`` bytes of random data", exactly like the paper's files
    "filled with random bytes".
    """

    __slots__ = ("length",)

    def __init__(self, length: int):
        if length < 0:
            raise TransportError(f"negative payload length: {length}")
        self.length = int(length)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, SyntheticPayload) and other.length == self.length

    def __hash__(self) -> int:
        return hash(("SyntheticPayload", self.length))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticPayload({self.length})"


Payload = Union[bytes, SyntheticPayload]


def payload_length(payload: Payload) -> int:
    """Length in bytes of a real or synthetic payload."""
    kind = type(payload)
    if kind is bytes or kind is memoryview:
        return len(payload)
    if kind is SyntheticPayload:
        return payload.length
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, SyntheticPayload):
        return payload.length
    raise TransportError(
        f"unsupported payload type: {type(payload).__name__} "
        "(use bytes or SyntheticPayload)"
    )


class ControlFrame:
    """A Stabilizer control-plane report: monotonic (type -> seq) entries.

    ``entries`` maps a numeric stability-type id to the highest sequence
    number the reporting node acknowledges for that type, for one origin
    stream.  Monotonic by construction: newer frames overwrite older ones.
    The frame holds ``entries`` as given, not a copy: its maker hands over
    a dict it no longer writes (a report batch, swapped out at its flush).
    """

    __slots__ = ("node_index", "origin_index", "entries")

    def __init__(
        self, node_index: int, origin_index: int, entries: Dict[int, int]
    ):
        self.node_index = node_index
        self.origin_index = origin_index
        self.entries = entries

    def wire_size(self) -> int:
        return CONTROL_HEADER.size + 2 + CONTROL_ENTRY.size * len(self.entries)

    def encode(self) -> bytes:
        parts = [
            CONTROL_HEADER.pack(KIND_CONTROL, self.node_index, len(self.entries)),
            struct.pack("!H", self.origin_index),
        ]
        for type_id, seq in sorted(self.entries.items()):
            parts.append(CONTROL_ENTRY.pack(type_id, seq))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "ControlFrame":
        try:
            kind, node, count = CONTROL_HEADER.unpack_from(data)
        except struct.error as exc:
            raise TransportError(f"malformed control frame: {exc}") from exc
        if kind != KIND_CONTROL:
            raise TransportError(f"not a control frame (kind={kind})")
        offset = CONTROL_HEADER.size
        entries: Dict[int, int] = {}
        try:
            (origin,) = struct.unpack_from("!H", data, offset)
            offset += 2
            for _ in range(count):
                type_id, seq = CONTROL_ENTRY.unpack_from(data, offset)
                offset += CONTROL_ENTRY.size
                entries[type_id] = seq
        except struct.error as exc:
            raise TransportError(f"truncated control frame: {exc}") from exc
        return cls(node, origin, entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ControlFrame from={self.node_index} origin={self.origin_index} "
            f"{self.entries}>"
        )


class ControlBatch:
    """Several control reports coalesced into one transport frame.

    A flush covering multiple origin streams toward the same peer pays
    one transport header instead of one per report; the sub-reports keep
    their own encodings (length-prefixed) inside the batch.
    """

    __slots__ = ("node_index", "frames")

    def __init__(self, node_index: int, frames):
        self.frames = list(frames)
        if not self.frames:
            raise TransportError("empty control batch")
        self.node_index = node_index

    def wire_size(self) -> int:
        return BATCH_HEADER.size + sum(
            2 + frame.wire_size() for frame in self.frames
        )

    def encode(self) -> bytes:
        parts = [
            BATCH_HEADER.pack(KIND_CONTROL_BATCH, self.node_index, len(self.frames))
        ]
        for frame in self.frames:
            encoded = frame.encode()
            parts.append(struct.pack("!H", len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "ControlBatch":
        try:
            kind, node, count = BATCH_HEADER.unpack_from(data)
        except struct.error as exc:
            raise TransportError(f"malformed control batch: {exc}") from exc
        if kind != KIND_CONTROL_BATCH:
            raise TransportError(f"not a control batch (kind={kind})")
        offset = BATCH_HEADER.size
        frames = []
        for _ in range(count):
            try:
                (length,) = struct.unpack_from("!H", data, offset)
            except struct.error as exc:
                raise TransportError(f"truncated control batch: {exc}") from exc
            offset += 2
            chunk = data[offset : offset + length]
            if len(chunk) != length:
                raise TransportError("truncated control batch")
            frames.append(ControlFrame.decode(chunk))
            offset += length
        return cls(node, frames)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ControlBatch from={self.node_index} reports={len(self.frames)}>"


class _SequencerEntriesFrame:
    """Shared layout of the deferred-update engine's two frame types:
    monotone ``(origin_index, type_id) -> seq`` entries from one node."""

    __slots__ = ("node_index", "entries")
    KIND = None

    def __init__(self, node_index: int, entries: Dict[Tuple[int, int], int]):
        self.node_index = node_index
        self.entries = dict(entries)

    def wire_size(self) -> int:
        return SEQ_HEADER.size + SEQ_ENTRY.size * len(self.entries)

    def encode(self) -> bytes:
        parts = [SEQ_HEADER.pack(self.KIND, self.node_index, len(self.entries))]
        for (origin, type_id), seq in sorted(self.entries.items()):
            parts.append(SEQ_ENTRY.pack(origin, type_id, seq))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes):
        try:
            kind, node, count = SEQ_HEADER.unpack_from(data)
        except struct.error as exc:
            raise TransportError(f"malformed sequencer frame: {exc}") from exc
        if kind != cls.KIND:
            raise TransportError(f"not a {cls.__name__} (kind={kind})")
        offset = SEQ_HEADER.size
        entries: Dict[Tuple[int, int], int] = {}
        for _ in range(count):
            try:
                origin, type_id, seq = SEQ_ENTRY.unpack_from(data, offset)
            except struct.error as exc:
                raise TransportError(f"truncated sequencer frame: {exc}") from exc
            offset += SEQ_ENTRY.size
            entries[(origin, type_id)] = seq
        return cls(node, entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} from={self.node_index} "
            f"entries={len(self.entries)}>"
        )


class SequencerReportFrame(_SequencerEntriesFrame):
    """A node's batched grant-floor report to the shard's sequencer:
    "I have delivered/granted ``origin``'s stream up to ``seq`` at each
    listed stability type".  Fan-in is O(n) — every node reports to one
    sequencer instead of streaming to every peer."""

    KIND = KIND_SEQ_REPORT


class SequencerStableFrame(_SequencerEntriesFrame):
    """The sequencer's stable-counter broadcast: the minimum grant floor
    over every node, per (origin, type).  Receivers advance *all* rows of
    the named origin tables at once — the deferred-update engine tracks a
    single stable counter, not per-node cells."""

    KIND = KIND_SEQ_STABLE


class InterestFrame:
    """Which origin streams a node observes: the control carrier's demand
    announcement (``docs/strategies.md``, "Fan-out follows demand").

    ``origins`` are the origin indices whose live reports the node wants;
    ``version`` orders one node's announcements, because datagrams
    overtake each other and only the newest statement counts.  Sent by
    itself when a node's interest widens, and inside the heartbeat
    datagram (after the state frame, under the same transport header)
    to restate it.
    """

    __slots__ = ("node_index", "version", "origins")

    def __init__(self, node_index: int, version: int, origins):
        self.node_index = node_index
        self.version = version
        self.origins = tuple(sorted(origins))

    def wire_size(self) -> int:
        return INTEREST_HEADER.size + INTEREST_ENTRY.size * len(self.origins)

    def encode(self) -> bytes:
        parts = [
            INTEREST_HEADER.pack(
                KIND_INTEREST, self.node_index, self.version, len(self.origins)
            )
        ]
        for origin in self.origins:
            parts.append(INTEREST_ENTRY.pack(origin))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "InterestFrame":
        try:
            kind, node, version, count = INTEREST_HEADER.unpack_from(data)
        except struct.error as exc:
            raise TransportError(f"malformed interest frame: {exc}") from exc
        if kind != KIND_INTEREST:
            raise TransportError(f"not an interest frame (kind={kind})")
        offset = INTEREST_HEADER.size
        origins = []
        for _ in range(count):
            try:
                (origin,) = INTEREST_ENTRY.unpack_from(data, offset)
            except struct.error as exc:
                raise TransportError(f"truncated interest frame: {exc}") from exc
            offset += INTEREST_ENTRY.size
            origins.append(origin)
        return cls(node, version, origins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InterestFrame from={self.node_index} v{self.version} "
            f"origins={self.origins}>"
        )


class ResumeFrame:
    """A restarted node's catch-up request (Section III-E recovery).

    ``have`` maps an origin index to the highest sequence number the
    restarted node already holds for that origin's stream (from its
    restored snapshot).  Each peer responds by replaying its buffered
    data-plane messages above the stated watermark and re-sending its
    full control row, on freshly reset transport streams.
    """

    __slots__ = ("node_index", "have")

    def __init__(self, node_index: int, have: Dict[int, int]):
        self.node_index = node_index
        self.have = dict(have)

    def wire_size(self) -> int:
        return RESUME_HEADER.size + RESUME_ENTRY.size * len(self.have)

    def encode(self) -> bytes:
        parts = [RESUME_HEADER.pack(KIND_RESUME, self.node_index, len(self.have))]
        for origin, seq in sorted(self.have.items()):
            parts.append(RESUME_ENTRY.pack(origin, seq))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "ResumeFrame":
        try:
            kind, node, count = RESUME_HEADER.unpack_from(data)
        except struct.error as exc:
            raise TransportError(f"malformed resume frame: {exc}") from exc
        if kind != KIND_RESUME:
            raise TransportError(f"not a resume frame (kind={kind})")
        offset = RESUME_HEADER.size
        have: Dict[int, int] = {}
        for _ in range(count):
            try:
                origin, seq = RESUME_ENTRY.unpack_from(data, offset)
            except struct.error as exc:
                raise TransportError(f"truncated resume frame: {exc}") from exc
            offset += RESUME_ENTRY.size
            have[origin] = seq
        return cls(node, have)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResumeFrame from={self.node_index} have={self.have}>"
