"""Unit tests for the link model."""

import pytest

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def make_link(sim, latency_s=0.01, bandwidth_bps=8e6, **kwargs):
    return Link(sim, "a", "b", latency_s, bandwidth_bps, **kwargs)


def packet(size=1000, sim=None):
    return Packet("a", "b", "test", b"", size, sent_at=sim.now if sim else 0.0)


def receiver(on_packet):
    """Host ``b`` with ``on_packet`` bound to the test port."""
    host = Host("b", 1)
    host.bind("test", on_packet)
    return host


def test_idle_link_delivery_time_is_serialization_plus_latency():
    sim = Simulator()
    link = make_link(sim)  # 8 Mbit/s -> 1000 bytes = 1ms serialize; + 10ms
    arrivals = []
    link.transmit(packet(1000, sim), receiver(lambda p: arrivals.append(sim.now)))
    sim.run()
    assert arrivals == [pytest.approx(0.011)]


def test_fifo_queueing_delays_second_packet():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.transmit(packet(1000, sim), receiver(lambda p: arrivals.append(sim.now)))
    link.transmit(packet(1000, sim), receiver(lambda p: arrivals.append(sim.now)))
    sim.run()
    # Second packet serializes after the first: 2ms + 10ms propagation.
    assert arrivals == [pytest.approx(0.011), pytest.approx(0.012)]


def test_queueing_delay_reports_backlog():
    sim = Simulator()
    link = make_link(sim)
    for _ in range(5):
        link.transmit(packet(1000, sim), receiver(lambda p: None))
    assert link.queueing_delay() == pytest.approx(0.005)
    assert link.backlog_bytes() == 5000
    sim.run()
    assert link.backlog_bytes() == 0
    assert link.queueing_delay() == 0.0


def test_transfer_time_helper_matches_actual_delivery():
    sim = Simulator()
    link = make_link(sim, latency_s=0.02, bandwidth_bps=1e6)
    expected = link.transfer_time(12_500)  # 0.1s serialize + 0.02s
    arrivals = []
    link.transmit(packet(12_500, sim), receiver(lambda p: arrivals.append(sim.now)))
    sim.run()
    assert arrivals == [pytest.approx(expected)]


def test_down_link_drops_and_counts():
    sim = Simulator()
    link = make_link(sim, up=False)
    assert link.transmit(packet(100, sim), receiver(lambda p: None)) is False
    assert link.stats.packets_dropped == 1
    assert link.stats.packets_sent == 0


def test_link_down_mid_flight_drops_packet():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.transmit(packet(1000, sim), receiver(lambda p: arrivals.append(p)))
    link.set_up(False)
    sim.run()
    assert arrivals == []
    assert link.stats.packets_dropped == 1


def test_loss_rate_drops_fraction_of_packets():
    sim = Simulator()
    rng = RngRegistry(42).stream("loss")
    link = make_link(sim, loss_rate=0.5, rng=rng)
    delivered = []
    for _ in range(200):
        link.transmit(packet(10, sim), receiver(lambda p: delivered.append(p)))
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
    link = Link(sim, "a", "b", 0.01, 8e9, jitter_s=0.005, rng=rng)
    arrivals = []
    for _ in range(50):
        link.transmit(packet(10, sim), receiver(lambda p: arrivals.append(sim.now)))
    sim.run()
    assert max(arrivals) - min(arrivals) > 0.001


def test_reshape_changes_future_transfers():
    sim = Simulator()
    link = make_link(sim, latency_s=0.01, bandwidth_bps=8e6)
    link.reshape(latency_s=0.05, bandwidth_bps=4e6)
    arrivals = []
    link.transmit(packet(1000, sim), receiver(lambda p: arrivals.append(sim.now)))
    sim.run()
    assert arrivals == [pytest.approx(0.052)]


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Link(sim, "a", "b", -1.0, 1e6)
    with pytest.raises(NetworkError):
        Link(sim, "a", "b", 0.0, 0.0)
    link = make_link(sim)
    with pytest.raises(NetworkError):
        link.reshape(bandwidth_bps=-5)


def test_stats_track_bytes_and_max_backlog():
    sim = Simulator()
    link = make_link(sim)
    for _ in range(3):
        link.transmit(packet(500, sim), receiver(lambda p: None))
    assert link.stats.max_backlog_bytes == 1500
    sim.run()
    assert link.stats.bytes_sent == 1500
    assert link.stats.packets_sent == 3
