"""Reliable lossless-FIFO transport over the simulated WAN.

The paper assumes a "lossless FIFO data transport" per ordered peer pair
(Section I) and splits large writes into packets of at most 8 KB
(Section VI-B).  This package supplies both pieces:

- :mod:`repro.transport.messages` — control frames with realistic sizes (a
  fixed header plus their entries), and *synthetic payloads* that carry a
  length without materializing bytes, so trace-scale experiments stay in
  memory.
- :mod:`repro.transport.chunker` — the 8 KB splitter; an object's chunks
  are consecutive messages of one FIFO stream, reassembled in order by the
  data plane.
- :mod:`repro.transport.fifo` — a cumulative-ACK, go-back-N reliable FIFO
  channel that survives packet loss and reordering.
- :mod:`repro.transport.endpoint` — per-host multiplexing of many named
  channels over one network port.
"""

from repro.transport.chunker import CHUNK_BYTES, Chunker
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import FifoChannel
from repro.transport.messages import ControlFrame, SyntheticPayload, payload_length

__all__ = [
    "CHUNK_BYTES",
    "Chunker",
    "ControlFrame",
    "FifoChannel",
    "SyntheticPayload",
    "TransportEndpoint",
    "payload_length",
]
