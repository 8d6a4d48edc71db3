"""Unit tests for the link model."""

import pytest

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.link import Link
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def make_link(sim, latency_s=0.01, bandwidth_bps=8e6, on_packet=None, **kwargs):
    """A link from host ``a`` to host ``b``, whose ``test`` port hands
    every arrival to ``on_packet`` (by default: drops it)."""
    target = Host("b", 1)
    target.bind("test", on_packet or (lambda p: None))
    return Link(sim, Host("a", 0), target, latency_s, bandwidth_bps, **kwargs)


def send(link, size=1000):
    return link.send("test", b"", size)


def test_idle_link_delivery_time_is_serialization_plus_latency():
    sim = Simulator()
    arrivals = []
    # 8 Mbit/s -> 1000 bytes = 1ms serialize; + 10ms
    link = make_link(sim, on_packet=lambda p: arrivals.append(sim.now))
    send(link, 1000)
    sim.run()
    assert arrivals == [pytest.approx(0.011)]


def test_fifo_queueing_delays_second_packet():
    sim = Simulator()
    arrivals = []
    link = make_link(sim, on_packet=lambda p: arrivals.append(sim.now))
    send(link, 1000)
    send(link, 1000)
    sim.run()
    # Second packet serializes after the first: 2ms + 10ms propagation.
    assert arrivals == [pytest.approx(0.011), pytest.approx(0.012)]


def test_queueing_delay_reports_backlog():
    sim = Simulator()
    link = make_link(sim)
    for _ in range(5):
        send(link, 1000)
    assert link.queueing_delay() == pytest.approx(0.005)
    assert link.backlog_bytes() == 5000
    sim.run()
    assert link.backlog_bytes() == 0
    assert link.queueing_delay() == 0.0


def test_idle_link_delivers_after_serialization_plus_latency():
    sim = Simulator()
    arrivals = []
    link = make_link(
        sim, latency_s=0.02, bandwidth_bps=1e6,
        on_packet=lambda p: arrivals.append(sim.now),
    )
    send(link, 12_500)
    sim.run()
    assert arrivals == [pytest.approx(0.1 + 0.02)]  # serialize + propagate


def test_down_link_drops_and_counts():
    sim = Simulator()
    link = make_link(sim)
    link.set_up(False)
    assert send(link, 100) is False
    assert link.stats.packets_dropped == 1
    assert link.stats.packets_sent == 0


def test_link_down_mid_flight_drops_packet():
    sim = Simulator()
    arrivals = []
    link = make_link(sim, on_packet=arrivals.append)
    send(link, 1000)
    link.set_up(False)
    sim.run()
    assert arrivals == []
    assert link.stats.packets_dropped == 1


def test_loss_rate_drops_fraction_of_packets():
    sim = Simulator()
    rng = RngRegistry(42).stream("loss")
    delivered = []
    link = make_link(sim, loss_rate=0.5, rng=rng, on_packet=delivered.append)
    for _ in range(200):
        send(link, 10)
    sim.run()
    assert 60 < len(delivered) < 140
    assert link.stats.packets_dropped == 200 - len(delivered)


def test_loss_without_rng_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        make_link(sim, loss_rate=0.1)


def test_jitter_spreads_arrivals():
    sim = Simulator()
    rng = RngRegistry(1).stream("jitter")
    arrivals = []
    link = make_link(
        sim, 0.01, 8e9, jitter_s=0.005, rng=rng,
        on_packet=lambda p: arrivals.append(sim.now),
    )
    for _ in range(50):
        send(link, 10)
    sim.run()
    assert max(arrivals) - min(arrivals) > 0.001


def test_reshape_changes_future_transfers():
    sim = Simulator()
    arrivals = []
    link = make_link(
        sim, latency_s=0.01, bandwidth_bps=8e6,
        on_packet=lambda p: arrivals.append(sim.now),
    )
    link.reshape(latency_s=0.05, bandwidth_bps=4e6)
    send(link, 1000)
    sim.run()
    assert arrivals == [pytest.approx(0.052)]


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        make_link(sim, -1.0, 1e6)
    with pytest.raises(NetworkError):
        make_link(sim, 0.0, 0.0)
    link = make_link(sim)
    with pytest.raises(NetworkError):
        link.reshape(bandwidth_bps=-5)


def test_stats_track_bytes_and_max_backlog():
    sim = Simulator()
    link = make_link(sim)
    for _ in range(3):
        send(link, 500)
    assert link.stats.max_backlog_bytes == 1500
    sim.run()
    assert link.stats.bytes_sent == 1500
    assert link.stats.packets_sent == 3


def test_a_crashed_source_sends_nothing():
    sim = Simulator()
    arrivals = []
    link = make_link(sim, on_packet=arrivals.append)
    link.source.crash()
    assert send(link, 100) is False
    assert (link.stats.packets_sent, link.stats.packets_dropped) == (0, 0)
    link.source.recover()
    assert send(link, 100) is True
    sim.run()
    assert [(p.src, p.dst, p.port, p.size_bytes) for p in arrivals] == [
        ("a", "b", "test", 100)
    ]


def test_a_closed_port_drops_stragglers_a_never_bound_one_raises():
    sim = Simulator()
    arrivals = []
    link = make_link(sim, on_packet=arrivals.append)
    send(link, 100)
    link.target.unbind("test")
    sim.run()  # the packet in flight meets a closed port: dropped
    assert arrivals == [] and link.target.packets_received == 0
    link.target.bind("test", arrivals.append)  # reopened: delivered again
    send(link, 100)
    sim.run()
    assert len(arrivals) == 1
    link.send("never-bound", b"", 100)
    with pytest.raises(NetworkError, match="no handler"):
        sim.run()


def test_a_channel_key_with_no_handler_goes_to_its_endpoint_port():
    # A tuple port names a channel on the endpoint port it starts with:
    # unbound, the packet goes to that port; that one unbound, it raises.
    sim = Simulator()
    arrivals = []
    link = make_link(sim, on_packet=arrivals.append)
    link.target.bind(("test", "chan", "a"), lambda p: arrivals.append("key"))
    link.send(("test", "chan", "a"), b"", 100)
    link.send(("test", "other", "a"), b"", 100)
    sim.run()
    assert arrivals[0] == "key" and arrivals[1].port == ("test", "other", "a")
    link.target.unbind("test")
    link.send(("test", "other", "a"), b"", 100)
    sim.run()  # the endpoint port is closed: dropped
    assert len(arrivals) == 2
    link.send(("never-bound", "chan", "a"), b"", 100)
    with pytest.raises(NetworkError, match="no handler"):
        sim.run()
