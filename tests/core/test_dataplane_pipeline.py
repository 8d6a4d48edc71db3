"""The pipelined data plane: frame coalescing, frames cut inside
``send()``, window stalls, backpressure policies, and replay interaction
with pending tails."""

import pytest

from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, DataPlane
from repro.errors import BackpressureError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport import TransportEndpoint
from repro.transport.messages import SyntheticPayload

NODES = ["x", "y"]


def build_net(latency_ms=5, rate_mbit=100):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit))
    sim = Simulator()
    return sim, topo.build(sim)


def config(local="x", **kwargs):
    return StabilizerConfig(NODES, {n: [n] for n in NODES}, local, **kwargs)


def wire(sim, net, **kwargs):
    """A sending plane at x and a receiving plane at y."""
    delivered = []
    received = []
    dp_x = DataPlane(TransportEndpoint(net, "x"), config("x", **kwargs))
    dp_y = DataPlane(
        TransportEndpoint(net, "y"),
        config("y", **kwargs),
        on_received=lambda o, s, p: received.append(s),
    )
    dp_y.on_deliver = lambda o, s, p, m: delivered.append((o, s, p, m))
    return dp_x, dp_y, delivered, received


def test_chunks_coalesce_into_frames():
    sim, net = build_net()
    dp_x, dp_y, delivered, received = wire(
        sim, net, chunk_bytes=1000, frame_bytes=8000
    )
    first, last = dp_x.send(SyntheticPayload(50_000))
    assert (first, last) == (1, 50)
    sim.run(until=5.0)
    # 50 sequenced messages crossed in ~7 coalesced frames, not 50.
    assert dp_y.messages_received == 50
    assert dp_x.frames_sent < 10
    assert dp_x.frame_messages == 50
    assert dp_y.frames_received == dp_x.frames_sent
    assert dp_x.max_frame_messages == 8
    assert dp_y.highest_received("x") == 50
    # The object reassembled exactly once, at full length.
    assert len(delivered) == 1
    assert len(delivered[0][2]) == 50_000
    assert received == list(range(1, 51))


def test_real_bytes_survive_framing_intact():
    sim, net = build_net()
    dp_x, dp_y, delivered, _ = wire(sim, net, chunk_bytes=100, frame_bytes=350)
    blob = bytes(range(256)) * 4  # 1024 B -> 11 chunks across several frames
    dp_x.send(blob)
    dp_x.send(b"short")
    sim.run(until=5.0)
    assert [bytes(p) for (_, _, p, _) in delivered] == [blob, b"short"]


def test_lone_message_needs_no_batch_frame():
    sim, net = build_net()
    dp_x, dp_y, delivered, _ = wire(sim, net, frame_bytes=32 * 1024)
    dp_x.send(b"hello")
    # The frame was cut inside send(): nothing waits for more messages.
    assert (dp_x.frames_sent, dp_x.pending_frame_bytes("y")) == (1, 0)
    sim.run(until=5.0)
    assert dp_x.frames_sent == 1
    assert dp_x.frame_messages == 1
    # A single-message frame rides a plain chunk meta — the receive path
    # never saw a batch.
    assert dp_y.frames_received == 0
    assert delivered[0][2] == b"hello"


def test_window_stall_defers_and_window_open_resumes():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(
        sim,
        net,
        chunk_bytes=1000,
        frame_bytes=2000,
        window_bytes=4000,
    )
    dp_x.send(SyntheticPayload(40_000))
    # The window closed long before 40 KB could be cut into frames.
    assert dp_x.window_stalls >= 1
    assert dp_x.pending_frame_bytes("y") > 0
    cut_at_send = dp_x.frames_sent
    sim.run(until=10.0)
    # Credits came back, stalled pending flushed, everything arrived.
    assert dp_x.window_opens >= 1
    assert dp_x.frames_sent > cut_at_send  # the ACKs cut the stalled tail
    assert len(received) == 40
    assert dp_x.pending_frame_bytes("y") == 0


def test_send_policy_except_raises_before_sequencing():
    sim, net = build_net()
    dp_x, _, _, _ = wire(sim, net, max_buffer_bytes=10_000)
    events = []
    dp_x.on_backpressure(lambda engaged, buffered: events.append((engaged, buffered)))
    dp_x.send(SyntheticPayload(9_000))
    assert dp_x.backpressure_engaged
    assert events == [(True, 9_000)]
    with pytest.raises(BackpressureError) as exc_info:
        dp_x.send(SyntheticPayload(5_000))
    assert exc_info.value.buffered_bytes == 9_000
    assert exc_info.value.max_bytes == 10_000
    # The refused message consumed no sequence numbers.
    assert dp_x.last_sent_seq() == dp_x.send(SyntheticPayload(100))[1] - 1
    # Reclamation drains below the low watermark and releases.
    dp_x.reclaim_up_to(dp_x.last_sent_seq())
    assert not dp_x.backpressure_engaged
    assert events[-1][0] is False
    assert dp_x.backpressure_events == 2


def test_replay_clears_pending_tail_no_duplicates():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(
        sim,
        net,
        chunk_bytes=1000,
        frame_bytes=2000,
        window_bytes=3000,
    )
    dp_x.send(SyntheticPayload(20_000))
    assert dp_x.pending_frame_bytes("y") == 18_000  # stalled tail exists
    # Catch-up replay takes the stalled tail's place: every entry is
    # pending once, less the one frame the reset stream lets fly.
    assert dp_x.replay_to("y", 0) == 20
    assert dp_x.pending_frame_bytes("y") == 18_000
    sim.run(until=10.0)
    assert dp_y.highest_received("x") == 20
    assert received == list(range(1, 21))  # no duplicates


def test_replay_never_exceeds_the_window():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(
        sim, net, chunk_bytes=1000, frame_bytes=2000, window_bytes=3000
    )
    dp_x.send(SyntheticPayload(20_000))
    sim.run(until=10.0)
    channel = dp_x.endpoint.channel("y", DATA_CHANNEL)
    inflight, link_send = [], channel.link.send
    channel.link.send = lambda *packet: (
        inflight.append(channel.unacked_bytes()) or link_send(*packet)
    )
    dp_x.replay_to("y", 0)
    sim.run(until=20.0)
    # The replay left as frames of two, waiting on credits like any stream.
    assert len(inflight) == 10 and max(inflight) <= 3000
    assert dp_y.duplicates_dropped == 20
    assert received == list(range(1, 21))


def test_replay_from_past_the_stream_end_replays_nothing():
    sim, net = build_net()
    dp_x, dp_y, _, received = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    dp_x.send(SyntheticPayload(3000))
    sim.run(until=1.0)
    # A peer that claims more of the stream than was sent is replayed
    # nothing, and the stream carries on from the next send.
    assert dp_x.replay_to("y", 10) == 0
    assert dp_x.pending_frame_bytes("y") == 0
    dp_x.send(SyntheticPayload(500))
    sim.run(until=2.0)
    assert received == [1, 2, 3, 4]


def test_coalescing_disabled_sends_per_message():
    sim, net = build_net()
    dp_x, dp_y, _, received = wire(
        sim, net, chunk_bytes=1000, frame_bytes=None
    )
    dp_x.send(SyntheticPayload(5000))
    sim.run(until=5.0)
    # Every message rides a frame of one, cut like any other frame.
    assert dp_x.frames_sent == dp_x.frame_messages == 5
    assert dp_y.frames_received == 0  # no batch frame crossed
    assert dp_y.messages_received == 5
    assert received == [1, 2, 3, 4, 5]
