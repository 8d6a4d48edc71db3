"""Splitting large writes into ≤ 8 KB messages and reassembling them.

Section VI-B: "Stabilizer splits big writes into smaller packets whose
upper bound is 8KB, so we get 517,294 messages in total to be sent."  The
chunker performs that split; the reassembler rebuilds application objects
on the receiving side and reports, per object, the sequence number of its
*last* chunk — which is what stability predicates are evaluated against
(an object is stable when its final chunk is).

This module also holds the WAN-frame coalescing primitives the pipelined
data plane is built on: :class:`FrameBuilder` accumulates sequenced
messages into one frame payload without per-message copies (real byte
payloads are held as ``memoryview`` parts and joined once, at the frame
boundary), and :func:`split_frame_payload` is its receive-side inverse
(zero-copy ``memoryview`` slices into the arrived frame).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.transport.messages import Payload, SyntheticPayload, payload_length

CHUNK_BYTES = 8 * 1024


class Chunk:
    """One piece of a larger object."""

    __slots__ = ("object_id", "chunk_index", "chunk_count", "payload")

    def __init__(self, object_id: int, chunk_index: int, chunk_count: int, payload: Payload):
        self.object_id = object_id
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        self.payload = payload

    @property
    def is_last(self) -> bool:
        return self.chunk_index == self.chunk_count - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Chunk obj={self.object_id} {self.chunk_index + 1}/"
            f"{self.chunk_count} {payload_length(self.payload)}B>"
        )


class Chunker:
    """Splits objects into chunks of at most ``chunk_bytes``."""

    def __init__(self, chunk_bytes: int = CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise TransportError(f"chunk size must be positive: {chunk_bytes}")
        self.chunk_bytes = chunk_bytes
        self._next_object_id = 0

    def chunk_count(self, length: int) -> int:
        """How many chunks a ``length``-byte object becomes (min 1)."""
        if length <= 0:
            return 1
        return (length + self.chunk_bytes - 1) // self.chunk_bytes

    def split(self, payload: Payload) -> List[Chunk]:
        """Split one object; assigns it a fresh object id."""
        return list(self.iter_split(payload))

    def iter_split(self, payload: Payload) -> Iterator[Chunk]:
        object_id = self._next_object_id
        self._next_object_id += 1
        length = payload_length(payload)
        count = self.chunk_count(length)
        if isinstance(payload, SyntheticPayload):
            if count == 1:
                yield Chunk(object_id, 0, 1, SyntheticPayload(length))
                return
            remaining = length
            for index in range(count):
                size = min(self.chunk_bytes, remaining)
                yield Chunk(object_id, index, count, SyntheticPayload(size))
                remaining -= size
        else:
            data = bytes(payload)
            if count == 1:
                yield Chunk(object_id, 0, 1, data)
                return
            for index in range(count):
                start = index * self.chunk_bytes
                yield Chunk(object_id, index, count, data[start : start + self.chunk_bytes])


class FrameBuilder:
    """Accumulates sequenced messages into one coalesced WAN frame.

    ``add`` never copies: real payloads are kept as ``memoryview`` parts
    and joined exactly once when :meth:`build` cuts the frame.  The data
    plane builds only runs of two or more; a lone message ships its chunk
    as is, with no batch framing and no copy.  A frame
    mixing real and synthetic payloads degrades to one
    :class:`SyntheticPayload` of the total length (experiments at that
    scale never inspect bytes).
    """

    __slots__ = ("_parts", "_metas", "_lengths", "_bytes", "_synthetic")

    def __init__(self) -> None:
        self._parts: List[object] = []
        self._metas: List[object] = []
        self._lengths: List[int] = []
        self._bytes = 0
        self._synthetic = False

    def add(self, payload: Payload, meta=None, length: Optional[int] = None) -> None:
        """Append one message; ``length`` is its payload length when the
        caller already knows it (the send buffer does)."""
        if length is None:
            length = payload_length(payload)
        if isinstance(payload, SyntheticPayload):
            self._synthetic = True
            self._parts.append(payload)
        elif isinstance(payload, memoryview):
            self._parts.append(payload)
        else:
            self._parts.append(memoryview(payload))
        self._metas.append(meta)
        self._lengths.append(length)
        self._bytes += length

    def build(self) -> Tuple[Payload, Tuple[object, ...], Tuple[int, ...]]:
        """Cut the frame: ``(payload, metas, lengths)``; resets the builder."""
        if not self._parts:
            raise TransportError("cannot build an empty frame")
        if self._synthetic:
            payload: Payload = SyntheticPayload(self._bytes)
        else:
            payload = b"".join(self._parts)  # the frame's one copy
        out = (payload, tuple(self._metas), tuple(self._lengths))
        self._parts, self._metas, self._lengths = [], [], []
        self._bytes = 0
        self._synthetic = False
        return out


def split_frame_payload(
    payload: Payload, lengths: Sequence[int]
) -> List[Payload]:
    """Split a coalesced frame back into its messages, zero-copy.

    Real frames yield ``memoryview`` slices into the arrived buffer;
    synthetic frames yield :class:`SyntheticPayload` parts of the recorded
    lengths.  The receive-side inverse of :class:`FrameBuilder`.
    """
    if isinstance(payload, SyntheticPayload):
        if sum(lengths) != payload.length:
            raise TransportError(
                f"frame length {payload.length} does not cover its "
                f"{len(lengths)} messages ({sum(lengths)}B)"
            )
        return [SyntheticPayload(n) for n in lengths]
    view = memoryview(payload)
    if sum(lengths) != len(view):
        raise TransportError(
            f"frame length {len(view)} does not cover its "
            f"{len(lengths)} messages ({sum(lengths)}B)"
        )
    parts: List[Payload] = []
    offset = 0
    for length in lengths:
        parts.append(view[offset : offset + length])
        offset += length
    return parts


class Reassembler:
    """Rebuilds objects from chunks arriving in any order.

    ``feed`` returns the completed payload (bytes joined, or a
    :class:`SyntheticPayload` of the total length) once every chunk of an
    object has arrived, else ``None``.
    """

    def __init__(self) -> None:
        self._partial: Dict[int, Dict[int, Payload]] = {}
        self._counts: Dict[int, int] = {}

    def feed(self, chunk: Chunk) -> Optional[Payload]:
        known_count = self._counts.setdefault(chunk.object_id, chunk.chunk_count)
        if known_count != chunk.chunk_count:
            raise TransportError(
                f"object {chunk.object_id}: inconsistent chunk count "
                f"({known_count} vs {chunk.chunk_count})"
            )
        if not 0 <= chunk.chunk_index < chunk.chunk_count:
            raise TransportError(
                f"object {chunk.object_id}: chunk index {chunk.chunk_index} "
                f"out of range"
            )
        parts = self._partial.setdefault(chunk.object_id, {})
        parts[chunk.chunk_index] = chunk.payload
        if len(parts) < chunk.chunk_count:
            return None
        del self._partial[chunk.object_id]
        del self._counts[chunk.object_id]
        ordered = [parts[i] for i in range(chunk.chunk_count)]
        if any(isinstance(p, SyntheticPayload) for p in ordered):
            return SyntheticPayload(sum(payload_length(p) for p in ordered))
        return b"".join(bytes(p) for p in ordered)

    def pending_objects(self) -> int:
        return len(self._partial)
