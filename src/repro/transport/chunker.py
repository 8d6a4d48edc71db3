"""Splitting large writes into ≤ 8 KB messages.

Section VI-B: "Stabilizer splits big writes into smaller packets whose
upper bound is 8KB, so we get 517,294 messages in total to be sent."  The
chunker performs that split.  Each chunk becomes the next sequence number
of the origin's stream, so an object's chunks are consecutive messages of
one lossless FIFO stream; the data plane reassembles them in that order
and reports, per object, the sequence number of its *last* chunk — which
is what stability predicates are evaluated against (an object is stable
when its final chunk is).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TransportError
from repro.transport.messages import Payload, SyntheticPayload, payload_length

CHUNK_BYTES = 8 * 1024


class Chunker:
    """Splits objects into chunks of at most ``chunk_bytes``."""

    def __init__(self, chunk_bytes: int = CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise TransportError(f"chunk size must be positive: {chunk_bytes}")
        self.chunk_bytes = chunk_bytes
        self._next_object_id = 0

    def split(self, payload: Payload) -> Tuple[int, List[Payload], List[int]]:
        """Split one object: ``(object_id, parts, sizes)``, with a fresh
        object id.  An object of one chunk is its own part.  The parts of
        a synthetic object share one :class:`SyntheticPayload` per size
        (they are immutable), so a split allocates nothing per chunk."""
        object_id = self._next_object_id
        self._next_object_id += 1
        step = self.chunk_bytes
        synthetic = type(payload) is SyntheticPayload or isinstance(
            payload, SyntheticPayload
        )
        if synthetic:
            length = payload.length
        else:
            length = payload_length(payload)
            payload = bytes(payload)
        if length <= step:
            return object_id, [payload], [length]
        full = (length - 1) // step  # chunks before the tail
        tail = length - full * step
        sizes = [step] * full
        sizes.append(tail)
        if synthetic:
            parts: List[Payload] = [SyntheticPayload(step)] * full
            parts.append(parts[0] if tail == step else SyntheticPayload(tail))
        else:
            parts = [payload[start : start + step] for start in range(0, length, step)]
        return object_id, parts, sizes
