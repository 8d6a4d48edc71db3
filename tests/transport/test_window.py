"""The send window's absence, driven through the data plane.

The data plane keeps no per-peer send window: ``send()`` cuts the new
entries once into greedy runs and ships every run on every open channel
at once, and the FIFO channel puts each frame on the link when it is
sent (``repro.core.dataplane``'s module docstring).  Each test here
holds one claim the window used to make, in the form it takes with no
window: no limit on what flies, nothing held back for an ACK, ACKs that
retire everything, and a frame's wire overhead charged to its link.
"""

from repro.transport import SyntheticPayload
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import BATCH_ENTRY

from tests.transport.test_fifo import build_net, plane_pair


def frame_size(payload_bytes, messages=1):
    batch = BATCH_ENTRY.size * messages if messages > 1 else 0
    return payload_bytes + TRANSPORT_HEADER_BYTES + batch


def test_window_available_tracks_credits():
    # With no credits to count, what tracks the bytes in flight is the
    # channel's retransmission buffer and its link: cumulative ACKs
    # retire every frame the send put there.
    sim, net = build_net()
    sender, channel, _ = plane_pair(net)
    sender.send(SyntheticPayload(1_000))
    assert channel.unacked_count() == 1
    assert channel.link.stats.bytes_sent == frame_size(1_000)
    sim.run(until=5.0)
    assert channel.unacked_count() == 0


def test_no_window_means_no_limit():
    sim, net = build_net()
    sender, channel, _ = plane_pair(net)
    for _ in range(50):
        sender.send(SyntheticPayload(100_000))
    # Every frame of all fifty sends is on the link at once.
    assert channel.unacked_count() == sender.frames_sent
    assert channel.link.stats.bytes_sent > 50 * 100_000


def test_closed_window_backlogs_and_counts_stalls():
    sim, net = build_net()
    sender, channel, received = plane_pair(net, chunk_bytes=1_000, frame_bytes=1_000)
    sender.send(SyntheticPayload(6_000))
    # No window closes: all six frames are in flight, none held back.
    assert channel.unacked_count() == sender.frames_sent == 6
    sim.run(until=5.0)
    assert received == [1, 2, 3, 4, 5, 6]
    assert sender.frames_sent == 6  # the ACKs cut nothing: no backlog


def test_one_frame_always_flies():
    sim, net = build_net()
    sender, channel, received = plane_pair(net, chunk_bytes=10**6, frame_bytes=10**6)
    # Every frame flies, however large and whatever is in flight: the
    # second does not wait for the first's ACK.
    sender.send(SyntheticPayload(10**6))
    sender.send(SyntheticPayload(10**6))
    assert channel.unacked_count() == 2
    sim.run(until=5.0)
    assert received == [1, 2]


def test_window_open_not_fired_while_backlog_remains():
    sim, net = build_net(latency_ms=20.0)
    sender, channel, received = plane_pair(net, chunk_bytes=500, frame_bytes=500)
    seen, on_retired = [], channel.on_retired

    def retired(meta, tag):
        on_retired(meta, tag)
        seen.append((channel.frames_sent - sender.frames_sent, sender.frames_sent))

    channel.on_retired = retired
    sender.send(SyntheticPayload(4_000))
    sim.run(until=10.0)
    assert received == list(range(1, 9))
    # Nothing waits below the data plane, and no ACK cuts a frame: all
    # eight were cut inside send().
    assert seen and all(entry == (0, 8) for entry in seen)


def test_wire_overhead_charges_window_credits():
    # A lone frame, then a run of two: the run's transport header and its
    # two batch entries are charged to the link beside its payload.
    sim, net = build_net()
    sender, channel, _ = plane_pair(net, chunk_bytes=500, frame_bytes=1_000)
    sender.send(SyntheticPayload(500))
    sender.send(SyntheticPayload(1_000))
    assert channel.unacked_count() == 2
    assert channel.link.stats.bytes_sent == frame_size(500) + frame_size(
        1_000, messages=2
    )
