"""FIFO channel tests: ordering, reliability under loss, ack reclamation."""

import pytest

from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, DataPlane
from repro.errors import ConfigError, TransportError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport import SyntheticPayload, TransportEndpoint


def build_net(loss_rate=0.0, latency_ms=10.0, rate_mbit=100.0, seed=0):
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.set_link_symmetric(
        "a",
        "b",
        NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit, loss_rate=loss_rate),
    )
    sim = Simulator()
    from repro.sim.rng import RngRegistry

    net = topo.build(sim, RngRegistry(seed))
    return sim, net


def ignore(peer, payload, meta):
    """A consumer for a name that only sends."""


def collect(log, key=lambda peer, payload, meta: (payload, meta)):
    """A consumer appending ``key(peer, payload, meta)`` to ``log``."""
    return lambda peer, payload, meta: log.append(key(peer, payload, meta))


def wire_pair(net, on_deliver=None):
    """The channel a→b named ``stream`` and what b delivered off it, as
    ``(payload, meta)`` pairs (or whatever ``on_deliver`` keeps)."""
    ep_a = TransportEndpoint(net, "a")
    ep_b = TransportEndpoint(net, "b")
    ep_a.accept("stream", ignore)
    received = []
    ep_b.accept("stream", on_deliver or collect(received))
    return ep_a.channel("b", "stream"), received


def test_in_order_delivery():
    sim, net = build_net()
    sender, received = wire_pair(net)
    for i in range(10):
        sender.send(f"msg{i}".encode(), meta=i)
    sim.run(until=5.0)
    assert [m for _, m in received] == list(range(10))
    assert [p for p, _ in received] == [f"msg{i}".encode() for i in range(10)]


def test_sequence_numbers_are_consecutive():
    sim, net = build_net()
    sender, _ = wire_pair(net)
    seqs = [sender.send(b"x") for _ in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_acks_release_retransmission_buffer():
    sim, net = build_net()
    sender, received = wire_pair(net)
    for i in range(5):
        sender.send(b"payload")
    assert sender.unacked_count() == 5
    sim.run(until=5.0)
    assert sender.unacked_count() == 0
    assert sender.unacked_bytes() == 0


def test_delivery_under_heavy_loss():
    sim, net = build_net(loss_rate=0.3, seed=7)
    sender, received = wire_pair(net)
    for i in range(50):
        sender.send(b"m", meta=i)
    sim.run(until=60.0)
    assert [m for _, m in received] == list(range(50))
    assert sender.retransmissions > 0
    assert sender.unacked_count() == 0


def test_fifo_order_preserved_under_loss():
    sim, net = build_net(loss_rate=0.2, seed=13)
    order = []
    sender, _ = wire_pair(net, collect(order, lambda peer, payload, meta: meta))
    for i in range(100):
        sender.send(SyntheticPayload(100), meta=i)
    sim.run(until=120.0)
    assert order == sorted(order)
    assert order == list(range(100))


def test_duplicate_frames_not_redelivered():
    sim, net = build_net(loss_rate=0.25, seed=3)
    sender, received = wire_pair(net)
    for i in range(30):
        sender.send(b"z", meta=i)
    sim.run(until=60.0)
    metas = [m for _, m in received]
    assert metas == list(range(30))  # exactly once, in order


def test_send_on_closed_channel_rejected():
    sim, net = build_net()
    sender, _ = wire_pair(net)
    sender.close()
    with pytest.raises(TransportError):
        sender.send(b"late")


def test_channel_reuse_and_reconfigure_rules():
    sim, net = build_net()
    ep = TransportEndpoint(net, "a")
    ep.accept("s", ignore)
    chan1 = ep.channel("b", "s")
    assert ep.channel("b", "s") is chan1
    # A name is accepted once, with its options: no second configuration.
    with pytest.raises(TransportError, match="already accepted"):
        ep.accept("s", ignore, min_rto=1.0)
    with pytest.raises(TransportError, match="never accepted"):
        ep.channel("b", "unknown")
    with pytest.raises(TransportError):
        ep.channel("a", "s")  # no loopback


def test_invalid_channel_parameters_rejected():
    sim, net = build_net()
    ep = TransportEndpoint(net, "a")
    ep.accept("bad", ignore, min_rto=0)
    with pytest.raises(TransportError):
        ep.channel("b", "bad")


def test_a_frame_for_a_name_not_yet_accepted_waits_for_accept():
    """The stream is lossless even when the receiver accepts late: a
    frame on a name the receiver never accepted is not acknowledged, so
    the sender retransmits it until the name is, and it arrives once."""
    sim, net = build_net()
    ep_a = TransportEndpoint(net, "a")
    ep_b = TransportEndpoint(net, "b")
    ep_a.accept("late", ignore)
    sender = ep_a.channel("b", "late")
    sender.send(b"early", meta="m")
    sim.run(until=1.0)
    assert sender.unacked_count() == 1
    assert sender.retransmissions >= 1
    assert ep_b.channels() == {}
    received = []
    ep_b.accept("late", collect(received, lambda *delivery: delivery))
    sim.run(until=10.0)
    assert received == [("a", b"early", "m")]
    assert sender.unacked_count() == 0


def test_bidirectional_streams_are_independent():
    sim, net = build_net()
    ep_a = TransportEndpoint(net, "a")
    ep_b = TransportEndpoint(net, "b")
    got_at_b, got_at_a = [], []
    ep_b.accept("x", collect(got_at_b, lambda peer, p, m: p))
    ep_a.accept("x", collect(got_at_a, lambda peer, p, m: p))
    a_to_b = ep_a.channel("b", "x")
    b_to_a = ep_b.channel("a", "x")
    a_to_b.send(b"to-b")
    b_to_a.send(b"to-a")
    sim.run(until=2.0)
    assert got_at_b == [b"to-b"]
    assert got_at_a == [b"to-a"]


def test_two_named_channels_do_not_interfere():
    sim, net = build_net()
    ep_a = TransportEndpoint(net, "a")
    ep_b = TransportEndpoint(net, "b")
    got = {"data": [], "control": []}
    for name, log in got.items():
        ep_a.accept(name, ignore)
        ep_b.accept(name, collect(log, lambda peer, p, m: p))
    data = ep_a.channel("b", "data")
    control = ep_a.channel("b", "control")
    data.send(b"d0")
    control.send(b"c0")
    data.send(b"d1")
    sim.run(until=2.0)
    assert got == {"data": [b"d0", b"d1"], "control": [b"c0"]}


def test_throughput_bounded_by_link_bandwidth():
    sim, net = build_net(latency_ms=5.0, rate_mbit=8.0)  # 1 MB/s
    arrivals = []
    sender, _ = wire_pair(net, collect(arrivals, lambda peer, p, m: sim.now))
    n = 100
    for i in range(n):
        sender.send(SyntheticPayload(10_000))
    sim.run(until=60.0)
    assert len(arrivals) == n
    span = arrivals[-1] - arrivals[0]
    goodput = (n - 1) * 10_000 / span  # bytes/s
    assert goodput == pytest.approx(1e6, rel=0.1)


def windowed_pair(net, **config):
    """Data planes at a and b over their FIFO data channel.  The channel
    launches every frame at once; the send window is the data plane's."""
    sender, receiver = (
        DataPlane(
            TransportEndpoint(net, local),
            StabilizerConfig(["a", "b"], {"a": ["a"], "b": ["b"]}, local, **config),
        )
        for local in ("a", "b")
    )
    channel = sender.endpoint.channel("b", DATA_CHANNEL)
    inflight, link_send = [], channel.link.send
    channel.link.send = lambda *packet: (
        inflight.append(channel.unacked_bytes()) or link_send(*packet)
    )
    received = []
    receiver.on_received = lambda origin, seq, payload: received.append(seq)
    return sender, channel, received, inflight


def test_flow_control_bounds_inflight_bytes():
    sim, net = build_net(latency_ms=20.0, rate_mbit=100.0)
    sender, channel, received, inflight = windowed_pair(
        net, chunk_bytes=10_000, frame_bytes=10_000, window_bytes=30_000
    )
    for _ in range(20):
        sender.send(SyntheticPayload(10_000))
    # Two 10_024-byte frames fit the window; the third would not, so the
    # other 18 wait in the data plane's stream, not below it.
    assert channel.unacked_count() == 2
    assert sender.pending_frame_bytes("b") == 180_000
    sim.run(until=20.0)
    assert received == list(range(1, 21))
    assert max(inflight) <= 30_000
    assert sender.pending_frame_bytes("b") == 0
    assert channel.unacked_count() == 0


def test_flow_control_preserves_order_under_loss():
    sim, net = build_net(loss_rate=0.2, seed=9)
    sender, channel, received, inflight = windowed_pair(
        net, chunk_bytes=900, frame_bytes=900, window_bytes=5_000
    )
    for _ in range(40):
        sender.send(SyntheticPayload(900))
    sim.run(until=120.0)
    assert received == list(range(1, 41))
    assert channel.retransmissions > 0 and max(inflight) <= 5_000


def test_flow_control_always_lets_one_frame_fly():
    sim, net = build_net()
    sender, channel, received, _ = windowed_pair(
        net, chunk_bytes=50_000, frame_bytes=50_000, window_bytes=10
    )
    sender.send(SyntheticPayload(50_000))  # far above the window
    assert channel.unacked_count() == 1
    sim.run(until=10.0)
    assert received == [1]


def test_flow_control_validation():
    sim, net = build_net()
    with pytest.raises(ConfigError):
        StabilizerConfig(["a", "b"], {"a": ["a"], "b": ["b"]}, "a", window_bytes=0)
    # The window is no channel option: the channel has none to validate.
    ep = TransportEndpoint(net, "a")
    ep.accept("bad-window", ignore, max_inflight_bytes=0)
    with pytest.raises(TypeError):
        ep.channel("b", "bad-window")


def test_restarted_sender_epoch_resets_receiver_stream():
    """A node that restarts creates a fresh channel whose frames carry a
    later epoch; the receiver resets its transport stream instead of
    treating the new seq 0 as a duplicate (Section III-E recovery)."""
    sim, net = build_net()
    received = []
    sender, _ = wire_pair(net, collect(received, lambda peer, p, m: m))
    sender.send(b"x", meta="pre-1")
    sender.send(b"x", meta="pre-2")
    sim.run(until=1.0)
    assert received == ["pre-1", "pre-2"]

    # "Restart": tear the endpoint down and build a new one at t > 0.
    sender.endpoint.close()
    ep_a2 = TransportEndpoint(net, "a")
    ep_a2.accept("stream", ignore)
    sender2 = ep_a2.channel("b", "stream")
    assert sender2.epoch > 0
    sender2.send(b"x", meta="post-1")
    sender2.send(b"x", meta="post-2")
    sim.run(until=2.0)
    assert received == ["pre-1", "pre-2", "post-1", "post-2"]
    assert sender2.unacked_count() == 0  # new-epoch acks are accepted


def test_stale_epoch_frames_are_ignored():
    sim, net = build_net()
    ep_b = TransportEndpoint(net, "b")
    received = []
    ep_b.accept("stream", collect(received, lambda peer, p, m: m))
    receiver = ep_b.channel("a", "stream")
    receiver._handle_data(0, b"new", 10, "new-epoch", epoch=5.0)
    receiver._handle_data(0, b"old", 10, "old-epoch", epoch=1.0)
    assert received == ["new-epoch"]


def test_synthetic_payloads_flow_through():
    sim, net = build_net()
    sender, received = wire_pair(net)
    sender.send(SyntheticPayload(8192))
    sim.run(until=2.0)
    assert received == [(SyntheticPayload(8192), None)]
