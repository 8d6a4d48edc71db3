"""The per-peer send window, driven through the data plane that keeps it.

The FIFO channel has no window and no queue: ``send`` puts the frame on
the link at once, and every ACK that retires frames fires
``on_window_open(meta, tag)`` with the newest retired frame's meta and
the ACK's tag.  A data-plane stream cuts a frame only while nothing
is in flight or the frame's wire bytes fit the window beside what is
(``repro.core.dataplane``'s module docstring).
"""

from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, DataPlane
from repro.transport import SyntheticPayload, TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import BATCH_ENTRY

from tests.transport.test_fifo import build_net, wire_pair


def wire(net, **config):
    """A sending data plane at a, a receiving one at b, and a's channel."""
    sender, receiver = (
        DataPlane(
            TransportEndpoint(net, local),
            StabilizerConfig(["a", "b"], {"a": ["a"], "b": ["b"]}, local, **config),
        )
        for local in ("a", "b")
    )
    received = []
    receiver.on_received = lambda origin, seq, payload: received.append(seq)
    return sender, sender.endpoint.channel("b", DATA_CHANNEL), received


def frame_size(payload_bytes, messages=1):
    batch = BATCH_ENTRY.size * messages if messages > 1 else 0
    return payload_bytes + TRANSPORT_HEADER_BYTES + batch


def test_window_available_tracks_credits():
    sim, net = build_net()
    sender, channel, _ = wire(net, window_bytes=10_000)
    sender.send(SyntheticPayload(1_000))
    assert channel.unacked_bytes() == frame_size(1_000)
    sim.run(until=5.0)
    assert channel.unacked_bytes() == 0  # cumulative acks returned every credit


def test_no_window_means_no_limit():
    sim, net = build_net()
    sender, channel, _ = wire(net, window_bytes=None)
    for _ in range(50):
        sender.send(SyntheticPayload(100_000))
    assert sender.window_stalls == sender.pending_frame_bytes("b") == 0
    assert channel.unacked_bytes() > 50 * 100_000


def test_closed_window_backlogs_and_counts_stalls():
    sim, net = build_net()
    sender, channel, received = wire(
        net, chunk_bytes=1_000, frame_bytes=1_000, window_bytes=frame_size(1_000) * 2
    )
    sender.send(SyntheticPayload(6_000))
    assert (channel.unacked_count(), sender.pending_frame_bytes("b")) == (2, 4_000)
    assert sender.window_stalled("b") and sender.window_stalls == 1
    assert sender.frames_sent == 2
    sim.run(until=5.0)
    # Everything drains in order once acks return credits.
    assert received == [1, 2, 3, 4, 5, 6]
    assert not sender.window_stalled("b") and sender.window_opens >= 1
    assert sender.frames_sent == 6  # the ACKs cut the stalled tail


def test_one_frame_always_flies():
    sim, net = build_net()
    sender, channel, received = wire(
        net, chunk_bytes=10**6, frame_bytes=10**6, window_bytes=100
    )
    # Far larger than the window, but nothing is in flight: it must fly.
    # A second oversized frame has to wait for the first.
    sender.send(SyntheticPayload(10**6))
    sender.send(SyntheticPayload(10**6))
    assert (channel.unacked_count(), sender.pending_frame_bytes("b")) == (1, 10**6)
    sim.run(until=5.0)
    assert received == [1, 2]


def test_window_open_fires_on_credit_return():
    sim, net = build_net()
    sender, _ = wire_pair(net)
    opens = []
    sender.on_window_open = lambda meta, tag: opens.append(
        (sender.unacked_count(), meta, tag)
    )
    sender.send(SyntheticPayload(1_000), meta="first")
    sender.send(SyntheticPayload(1_000), meta="second")
    sim.run(until=5.0)
    # The one ACK that retired both frames, naming the newer; a channel
    # whose consumer set no ack tag acknowledges with None.
    assert opens == [(0, "second", None)]


def test_window_open_carries_the_receivers_epoch_and_last_sequence():
    sim, net = build_net()
    sender, channel, _ = wire(net, chunk_bytes=500, frame_bytes=1_000)
    acked = []
    sender.on_acked = lambda peer, last: acked.append((peer, last))
    sender.send(SyntheticPayload(500))  # a lone frame: seq 1
    sim.run(until=1.0)
    sender.send(SyntheticPayload(1_000))  # one coalesced frame: 2 and 3
    sim.run(until=2.0)
    assert acked == [("b", 1), ("b", 3)]


def test_window_open_not_fired_while_backlog_remains():
    sim, net = build_net(latency_ms=20.0)
    window = frame_size(500) * 2
    sender, channel, received = wire(
        net, chunk_bytes=500, frame_bytes=500, window_bytes=window
    )
    seen, window_open = [], channel.on_window_open

    def on_open(meta, tag):
        window_open(meta, tag)
        seen.append((channel.frames_sent - sender.frames_sent, channel.unacked_bytes()))

    channel.on_window_open = on_open
    sender.send(SyntheticPayload(4_000))
    sim.run(until=10.0)
    assert received == list(range(1, 9))
    # Nothing waits below the data plane: every frame it cut is on the
    # link, and what a window-open cut fits the window.
    assert seen and all(held == 0 and inflight <= window for held, inflight in seen)


def test_credits_survive_loss_and_retransmission():
    sim, net = build_net(loss_rate=0.2, seed=3)
    sender, channel, received = wire(
        net, chunk_bytes=800, frame_bytes=800, window_bytes=frame_size(800) * 3
    )
    for _ in range(30):
        sender.send(SyntheticPayload(800))
    sim.run(until=60.0)
    assert received == list(range(1, 31))
    assert channel.retransmissions > 0 and sender.window_stalls > 0
    # No credit leak: everything acked, counters fully returned.
    assert channel.unacked_bytes() == sender.pending_frame_bytes("b") == 0


def test_wire_overhead_charges_window_credits():
    # A lone frame in flight, then a run of two: the run's transport
    # header and its two batch entries count against the window.
    inflight = frame_size(500) + frame_size(1_000, messages=2)
    for window, flies in ((inflight - 1, False), (inflight, True)):
        sim, net = build_net()
        sender, channel, _ = wire(
            net, chunk_bytes=500, frame_bytes=1_000, window_bytes=window
        )
        sender.send(SyntheticPayload(500))
        sender.send(SyntheticPayload(1_000))
        assert channel.unacked_bytes() == (inflight if flies else frame_size(500))
