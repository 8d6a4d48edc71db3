"""Adaptive retransmission: RTT estimation, backoff, suspension, revival.

The channel runs on the module's constants: the first timeout is
``INITIAL_RTO_S``, each unproductive retry multiplies it by
``RETRANSMIT_BACKOFF``, and the receiver acknowledges every ``ACK_EVERY``
frames or ``ACK_INTERVAL_S`` after the first unacknowledged one.
"""

import pytest

from repro.errors import TransportError
from repro.transport import TransportEndpoint
from repro.transport.fifo import INITIAL_RTO_S, MIN_RTO_S, RETRANSMIT_BACKOFF

from tests.transport.test_fifo import build_net, collect, ignore
from tests.wiretap import Tap


def wire_pair(net, **options):
    """The channel a→b named ``s``, built with ``options``, and the metas
    b delivered off it."""
    ep_a = TransportEndpoint(net, "a")
    ep_b = TransportEndpoint(net, "b")
    ep_a.accept("s", ignore, **options)
    received = []
    ep_b.accept("s", collect(received, lambda peer, payload, meta: meta))
    return ep_a, ep_b, ep_a.channel("b", "s"), received


def test_rtt_estimation_tightens_the_timeout():
    sim, net = build_net(latency_ms=10.0)
    _, ep_b, sender, received = wire_pair(net)
    assert sender.current_rto() == INITIAL_RTO_S
    for i in range(20):
        sim.call_at(i * 0.03, sender.send, b"x", i)
    sim.run(until=5.0)
    assert received == list(range(20))
    # One sample per ACK (each retires a frame never resent), not one per
    # frame.
    acks = ep_b.channel("a", "s").acks_sent
    assert 1 < acks < 20
    assert sender.rtt_samples == acks
    # One-way latency is 10 ms and the ACK is delayed by up to 50 ms; the
    # estimate sits near that round trip, and the adaptive timeout drops
    # far below the initial 500 ms.
    assert 0.015 < sender.srtt() < 0.1
    assert sender.current_rto() < INITIAL_RTO_S / 2
    assert sender.current_rto() >= MIN_RTO_S


def test_karns_rule_skips_retransmitted_frames():
    sim, net = build_net(loss_rate=0.3, seed=5)
    _, _, sender, received = wire_pair(net)
    for i in range(30):
        sender.send(b"x", meta=i)
    sim.run(until=60.0)
    assert received == list(range(30))
    assert sender.retransmissions > 0
    # Samples were taken, but only from cleanly-acked transmissions.
    assert 0 < sender.rtt_samples < sender.frames_sent


def test_karns_rule_goes_by_sequence_one_sample_per_ack():
    """An ACK whose newest retired frame was resent gives no sample; one
    retiring a frame sent after the resend does."""
    sim, net = build_net(latency_ms=10.0)
    _, _, sender, received = wire_pair(net)
    lost = Tap(
        net, "data", drop=lambda src, dst, payload: not lost.dropped
    )
    sender.send(b"x", meta=0)  # lost; resent at INITIAL_RTO_S
    sim.run(until=1.0)
    assert (sender.retransmissions, sender.unacked_count()) == (1, 0)
    assert sender.rtt_samples == 0 and sender.srtt() is None
    sender.send(b"x", meta=1)
    sim.run(until=2.0)
    assert received == [0, 1]
    assert sender.rtt_samples == 1
    # 10 ms each way and the receiver's 50 ms ACK delay.
    assert sender.srtt() == pytest.approx(0.07, abs=1e-3)


def test_a_lost_frame_is_resent_one_rto_after_it_was_sent():
    """The timer fires at send time + RTO, and that is when the frame goes
    again: 0.5 + 0.1 - 0.5 rounds below 0.1, which must not put the
    retransmission off for another RTO."""
    sim, net = build_net(latency_ms=1.0)
    ep_a, ep_b = TransportEndpoint(net, "a"), TransportEndpoint(net, "b")
    ep_a.accept("s", ignore, ack_delay=0.001)
    ep_b.accept("s", ignore, ack_delay=0.001)
    sender = ep_a.channel("b", "s")
    sender.send(b"x")  # its ACK's sample takes the RTO down to the floor
    sim.run(until=0.4)
    assert sender.current_rto() == MIN_RTO_S == 0.1
    tap = Tap(net, "data", drop=lambda src, dst, payload: not tap.dropped)
    sim.call_at(0.5, sender.send, b"y")
    sim.run(until=1.0)
    sends = [(round(t, 9), payload[2]) for t, _s, _d, payload, _n in tap.seen]
    assert sends == [(0.5, 1), (0.6, 1)]  # (time, seq): sent, then resent
    assert sender.retransmissions == 1 and sender.unacked_count() == 0


def test_exponential_backoff_spaces_out_retries():
    sim, net = build_net()
    _, _, sender, _ = wire_pair(net)
    sender.send(b"never-acked")
    net.crash_node("b")
    sim.run(until=5.0)
    # Without backoff a 500 ms timer would retry 9 times in 5 s; doubling
    # spaces the retries at 0.5, 1.5 and 3.5 s (the next is due at 7.5).
    assert sender.retransmissions == 3
    assert sender.current_rto() == INITIAL_RTO_S * RETRANSMIT_BACKOFF**3
    assert not sender.suspended  # no attempt cap configured


def test_suspension_after_max_attempts():
    sim, net = build_net()
    dead = []
    ep_a, _, sender, _ = wire_pair(net, max_retransmit_attempts=3)
    ep_a.on_peer_dead = lambda peer, name: dead.append((peer, name))
    sender.send(b"lost", meta="m")
    net.crash_node("b")
    sim.run(until=10.0)
    assert sender.suspended
    assert sender.suspensions == 1
    assert dead == [("b", "s")]
    assert "b" in ep_a._suspended_peers
    # The frame is retained, and the retry timer no longer burns.
    assert sender.unacked_count() == 1
    burned = sender.retransmissions
    sim.run(until=30.0)
    assert sender.retransmissions == burned


def test_suspended_channel_still_transmits_new_sends():
    sim, net = build_net()
    _, _, sender, _ = wire_pair(net, max_retransmit_attempts=2)
    sender.send(b"lost")
    net.crash_node("b")
    sim.run(until=10.0)
    assert sender.suspended
    sent_before = sender.frames_sent
    sender.send(b"probe")  # doubles as a liveness probe
    assert sender.frames_sent == sent_before + 1
    assert sender.suspended  # probing alone does not revive


def test_revival_on_ack_after_peer_returns():
    sim, net = build_net()
    _, _, sender, received = wire_pair(net, max_retransmit_attempts=2)
    sender.send(b"x", meta="pre")
    net.crash_node("b")
    sim.run(until=10.0)
    assert sender.suspended
    net.recover_node("b")
    sender.send(b"x", meta="post")  # the probe draws an ack back
    sim.run(until=20.0)
    assert not sender.suspended
    assert sender.revivals == 1
    assert received == ["pre", "post"]  # nothing lost, order kept
    assert sender.unacked_count() == 0


def test_any_packet_from_peer_revives_suspended_channels():
    sim, net = build_net()
    ep_a, ep_b, sender, received = wire_pair(net, max_retransmit_attempts=2)
    sender.send(b"x", meta="pre")
    net.crash_node("b")
    sim.run(until=10.0)
    assert sender.suspended
    net.recover_node("b")
    # Traffic in the *other* direction is also a sign of life: the endpoint
    # revives every suspended channel to the peer (this breaks the mutual-
    # suspension deadlock after a long partition).
    ep_b.accept("reverse", ignore)
    ep_a.accept("reverse", ignore)
    back = ep_b.channel("a", "reverse")
    back.send(b"hello-from-b")
    sim.run(until=20.0)
    assert not sender.suspended
    assert "b" not in ep_a._suspended_peers
    assert received == ["pre"]


def test_reset_stream_restarts_numbering_and_receiver_follows():
    sim, net = build_net()
    _, _, sender, received = wire_pair(net)
    for i in range(3):
        sender.send(b"x", meta=f"old-{i}")
    sim.run(until=2.0)
    epoch_before = sender.epoch
    sender.reset_stream()
    assert sender.epoch > epoch_before
    assert sender.stream_resets == 1
    assert sender.unacked_count() == 0
    assert sender.send(b"x", meta="new-0") == 0  # numbering restarts
    sim.run(until=4.0)
    assert received == ["old-0", "old-1", "old-2", "new-0"]


def test_reset_stream_on_closed_channel_rejected():
    sim, net = build_net()
    _, _, sender, _ = wire_pair(net)
    sender.close()
    with pytest.raises(TransportError):
        sender.reset_stream()


def test_close_cancels_all_timers():
    sim, net = build_net()
    ep_a, ep_b, sender, received = wire_pair(net)
    sender.send(b"x")
    sim.run(until=0.012)  # data arrived at b; its delayed-ack timer is armed
    receiver = ep_b.channel("a", "s")
    assert sender._retransmit_timer is not None
    ep_a.close()
    ep_b.close()
    assert sender._retransmit_timer is None
    assert receiver._ack_timer is None
    burned = sender.retransmissions + receiver.acks_sent
    sim.run(until=10.0)
    assert sender.retransmissions + receiver.acks_sent == burned
    ep_a.close()  # idempotent


def test_close_clears_suspension_state():
    sim, net = build_net()
    ep_a, _, sender, _ = wire_pair(net, max_retransmit_attempts=2)
    sender.send(b"x")
    net.crash_node("b")
    sim.run(until=10.0)
    assert "b" in ep_a._suspended_peers
    sender.close()
    assert "b" not in ep_a._suspended_peers


def test_adaptive_channel_config_validation():
    sim, net = build_net()
    ep = TransportEndpoint(net, "a")
    ep.accept("bad1", ignore, max_rto=MIN_RTO_S / 2)
    ep.accept("bad2", ignore, max_retransmit_attempts=0)
    for name in ("bad1", "bad2"):
        with pytest.raises(TransportError):
            ep.channel("b", name)
