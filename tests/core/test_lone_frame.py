"""A frame of one ships its chunk as is — and nothing else changed.

The data plane cuts a frame by choosing the run first: a run of one
message is sent as that message's chunk and chunk meta, and only a run of
two or more is gathered into a coalesced frame, in one pass.  This is the
differential test of that against a reference data plane that cuts
*every* frame through a frame builder (a private copy of the one the send
path used to have), as the send path once did.  Both stream the same
seeded traffic — real and synthetic payloads, objects of one and of many
chunks, chunks on both sides of ``frame_bytes``, a window small enough
that stalled peers coalesce several messages into one frame — over the
same network, and must put the same data frames on the wire: per peer,
the same sequence of (payload bytes or length, meta, wire size), the same
frames delivered, and the same frame counters.
"""

import random

import pytest

from repro.core import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, FRAME_TAG, DataPlane
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import BATCH_ENTRY, SyntheticPayload

from tests.wiretap import Tap

NODES = ["a", "b", "c", "d"]
CHUNK_BYTES = 1500
FRAME_BYTES = 1024  # below the largest chunk: some chunks alone fill a frame
WINDOW_BYTES = 6000  # a few frames in flight, then the window stalls


class _FrameBuilder:
    """The frame builder the send path used to cut runs with: real
    payloads held as ``memoryview`` parts and joined once; a frame with a
    synthetic part is one :class:`SyntheticPayload` of the total."""

    def __init__(self):
        self._parts, self._metas, self._lengths = [], [], []
        self._synthetic = False

    def add(self, payload, meta, length):
        if isinstance(payload, SyntheticPayload):
            self._synthetic = True
        elif not isinstance(payload, memoryview):
            payload = memoryview(payload)
        self._parts.append(payload)
        self._metas.append(meta)
        self._lengths.append(length)

    def build(self):
        if self._synthetic:
            payload = SyntheticPayload(sum(self._lengths))
        else:
            payload = b"".join(self._parts)
        return payload, tuple(self._metas), tuple(self._lengths)


class ReferenceDataPlane(DataPlane):
    """Every frame cut through the builder, a frame of one included,
    under the same window rule: the run flies if nothing is in flight or
    its wire bytes fit the window beside what is."""

    def _cut_frame(self, stream, cause):
        pending = list(stream.pending)
        count = total = 0
        for entry in pending:
            if count and total + entry.size > self._frame_bytes:
                break
            count += 1
            total += entry.size
            if total >= self._frame_bytes:
                break
        wire = total + TRANSPORT_HEADER_BYTES + BATCH_ENTRY.size * count * (count > 1)
        inflight = stream.channel.unacked_bytes()
        if inflight and inflight + wire > self._window_bytes:
            return False
        builder = _FrameBuilder()
        for entry in pending[:count]:
            stream.pending.popleft()
            stream.pending_bytes -= entry.size
            builder.add(entry.payload, entry.chunk_meta, entry.size)
        payload, metas, lengths = builder.build()
        if len(metas) == 1:
            stream.channel.send(payload, meta=(self.epoch, metas[0]))
        else:
            stream.channel.send(
                payload,
                meta=(self.epoch, (FRAME_TAG, metas, lengths)),
                wire_overhead=BATCH_ENTRY.size * len(metas),
            )
        self.frames_sent += 1
        self.frame_messages += len(metas)
        self.frame_payload_bytes += sum(lengths)
        self.max_frame_messages = max(self.max_frame_messages, len(metas))
        cause_key = (
            "size"
            if cause == "inline" and len(metas) > 1 and self._frame_delay_s > 0.0
            else cause
        )
        self.flush_causes[cause_key] = self.flush_causes.get(cause_key, 0) + 1
        return True


def plain(payload):
    """A payload as comparable data: its bytes, or a synthetic length."""
    if isinstance(payload, SyntheticPayload):
        return ("synthetic", payload.length)
    return bytes(payload)


def draw_payload(rng):
    size = rng.choice(
        (
            rng.randint(1, 200),  # several fit one frame
            rng.randint(200, FRAME_BYTES),
            rng.randint(FRAME_BYTES + 1, CHUNK_BYTES),  # one chunk, alone
            rng.randint(CHUNK_BYTES + 1, 4 * CHUNK_BYTES),  # many chunks
        )
    )
    if rng.random() < 0.5:
        return SyntheticPayload(size)
    return bytes(rng.getrandbits(8) for _ in range(size))


def stream_traffic(plane_class, seed):
    """Run the seeded traffic from ``a`` through a ``plane_class`` data
    plane; return what every peer received and the plane's counters."""
    rng = random.Random(seed)
    sim = Simulator()
    net = Topology.uniform(
        {name: name for name in NODES}, NetemSpec(latency_ms=10, rate_mbit=20)
    ).build(sim)
    config = StabilizerConfig(
        NODES,
        {name: [name] for name in NODES},
        "a",
        chunk_bytes=CHUNK_BYTES,
        frame_bytes=FRAME_BYTES,
        frame_delay_ms=rng.choice((0.0, 2.0)),
        window_bytes=WINDOW_BYTES,
    )
    delivered = {peer: [] for peer in NODES[1:]}
    for peer in NODES[1:]:
        channel = TransportEndpoint(net, peer).channel(
            "a", DATA_CHANNEL, **config.channel_kwargs()
        )
        channel.on_deliver = lambda payload, meta, _log=delivered[peer]: _log.append(
            (plain(payload), meta)
        )
    tap = Tap(net, "data")
    plane = plane_class(TransportEndpoint(net, "a"), config)
    at = 0.0
    for _burst in range(40):
        at += rng.choice((0.0005, 0.002, 0.02))
        payloads = [draw_payload(rng) for _ in range(rng.randint(1, 4))]
        for payload in payloads:
            sim.call_at(at, plane.send, payload)
    sim.run()
    wire = {peer: [] for peer in NODES[1:]}
    for _at, _src, dst, frame, size_bytes in tap.seen:
        wire[dst].append((plain(frame[3]), frame[4], size_bytes))
    counters = {
        name: getattr(plane, name)
        for name in (
            "frames_sent",
            "frame_messages",
            "frame_payload_bytes",
            "max_frame_messages",
            "flush_causes",
            "window_stalls",
        )
    }
    return wire, delivered, counters


@pytest.mark.parametrize("seed", range(8))
def test_lone_frames_put_the_same_frames_on_the_wire(seed):
    wire, delivered, counters = stream_traffic(DataPlane, seed)
    assert all(wire.values())  # every peer's data frames crossed the tap
    assert (wire, delivered, counters) == stream_traffic(ReferenceDataPlane, seed)
    # The traffic exercised both cuts: lone frames and coalesced ones.
    metas = [meta for frames in delivered.values() for _payload, meta in frames]
    assert any(meta[1][0] == FRAME_TAG for meta in metas)
    assert any(meta[1][0] != FRAME_TAG for meta in metas)
    # Every peer got every message of the stream, in order.
    streamed = counters["frame_messages"] // len(delivered)
    for frames in delivered.values():
        seqs = [
            chunk[0]
            for _payload, (_epoch, meta) in frames
            for chunk in (meta[1] if meta[0] == FRAME_TAG else (meta,))
        ]
        assert seqs == list(range(1, streamed + 1))
