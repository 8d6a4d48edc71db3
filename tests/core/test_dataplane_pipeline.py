"""The pipelined data plane: frame coalescing, frames cut and shipped
inside ``send()``, ACKs, backpressure policies, and replay."""

import pytest

from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, DataPlane
from repro.errors import BackpressureError, StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.transport import TransportEndpoint
from repro.transport.messages import SyntheticPayload

NODES = ["x", "y"]


def build_net(latency_ms=5, rate_mbit=100, loss_rate=0.0, seed=0):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(
        NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit, loss_rate=loss_rate)
    )
    sim = Simulator()
    return sim, topo.build(sim, RngRegistry(seed))


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


def channel_to_y(dp_x):
    return dp_x.endpoint.channel("y", DATA_CHANNEL)


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
    # The frame was cut and shipped inside send(): nothing waits for more
    # messages.
    assert dp_x.frames_sent == channel_to_y(dp_x).unacked_count() == 1
    sim.run(until=5.0)
    assert dp_x.frames_sent == 1
    assert dp_x.frame_messages == 1
    # A single-message frame rides a plain chunk meta — the receive path
    # never saw a batch.
    assert dp_y.frames_received == 0
    assert delivered[0][2] == b"hello"


def test_every_frame_is_on_the_wire_when_send_returns():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    channel = channel_to_y(dp_x)
    dp_x.send(SyntheticPayload(40_000))
    # No window: all twenty frames of two are in flight at once...
    assert dp_x.frames_sent == channel.unacked_count() == 20
    # ...and so is the next send's, whatever is already in flight.
    dp_x.send(SyntheticPayload(1000))
    assert dp_x.frames_sent == channel.unacked_count() == 21
    sim.run(until=10.0)
    assert received == list(range(1, 42))
    assert channel.unacked_count() == 0


def test_acks_carry_the_receivers_epoch_and_last_sequence():
    sim, net = build_net()
    dp_x, _, _, _ = wire(sim, net, chunk_bytes=500, frame_bytes=1000)
    acked = []
    dp_x.on_acked = lambda peer, last: acked.append((peer, last))
    dp_x.send(SyntheticPayload(500))  # a lone frame: seq 1
    sim.run(until=1.0)
    dp_x.send(SyntheticPayload(1000))  # one coalesced frame: 2 and 3
    sim.run(until=2.0)
    assert acked == [("y", 1), ("y", 3)]


def test_an_ack_from_another_epoch_grants_nothing():
    sim, net = build_net()
    dp_x = DataPlane(TransportEndpoint(net, "x"), config("x"))
    dp_y = DataPlane(TransportEndpoint(net, "y"), config("y", shard_epoch=1))
    acked = []
    dp_x.on_acked = lambda peer, last: acked.append((peer, last))
    dp_x.send(b"fenced")
    sim.run(until=1.0)
    # y fenced the frame; its ACK retired it but took nothing.
    assert dp_y.stale_epoch_frames == 1
    assert channel_to_y(dp_x).unacked_count() == 0
    assert acked == []


def test_acks_after_retransmission_carry_the_last_sequence():
    sim, net = build_net(loss_rate=0.2, seed=3)
    dp_x, _, _, received = wire(sim, net, chunk_bytes=800, frame_bytes=800)
    channel = channel_to_y(dp_x)
    acked = []
    dp_x.on_acked = lambda peer, last: acked.append(last)
    for _ in range(30):
        dp_x.send(SyntheticPayload(800))
    sim.run(until=60.0)
    assert received == list(range(1, 31))
    assert channel.retransmissions > 0 and channel.unacked_count() == 0
    # Each ACK that retired frames named the newest one's last sequence.
    assert acked == sorted(set(acked)) and acked[-1] == 30


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


def test_replay_delivers_no_duplicates():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    dp_x.send(SyntheticPayload(20_000))
    # A replay while the sent frames are still in flight: the reset
    # stream resends every entry, and the receiver drops what it holds.
    assert dp_x.replay_to("y", 0) == 20
    sim.run(until=10.0)
    assert dp_y.highest_received("x") == 20
    assert dp_y.duplicates_dropped == 20
    assert received == list(range(1, 21))  # no duplicates


def test_a_replay_ships_the_greedy_runs_from_its_start():
    sim, net = build_net(latency_ms=20)
    dp_x, dp_y, _, received = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    dp_x.send(SyntheticPayload(20_000))
    sim.run(until=10.0)
    channel = channel_to_y(dp_x)
    assert dp_x.replay_to("y", 0) == 20
    # The replay left at once, as frames of two on the reset stream.
    assert channel.unacked_count() == 10 and channel.stream_resets == 1
    sim.run(until=20.0)
    assert dp_y.duplicates_dropped == 20
    assert received == list(range(1, 21))


def test_a_replay_below_the_reclaimed_log_raises():
    sim, net = build_net()
    dp_x, _, _, _ = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    dp_x.send(SyntheticPayload(3000))
    sim.run(until=1.0)
    dp_x.reclaim_up_to(2)
    channel = channel_to_y(dp_x)
    with pytest.raises(StabilizerError, match="reclaimed up to 2"):
        dp_x.replay_to("y", 1)
    # Refused before the reset: nothing was resent.
    assert channel.stream_resets == 0 and dp_x.replayed_chunks == 0
    assert dp_x.replay_to("y", 2) == 1


def test_replay_from_past_the_stream_end_replays_nothing():
    sim, net = build_net()
    dp_x, dp_y, _, received = wire(sim, net, chunk_bytes=1000, frame_bytes=2000)
    dp_x.send(SyntheticPayload(3000))
    sim.run(until=1.0)
    # A peer that claims more of the stream than was sent is replayed
    # nothing, and the stream carries on from the next send.
    assert dp_x.replay_to("y", 10) == 0
    assert channel_to_y(dp_x).unacked_count() == 0
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
