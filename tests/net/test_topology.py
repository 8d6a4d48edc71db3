"""Unit tests for topology declaration and the live network."""

import pytest

from repro.errors import ConfigError, NetworkError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator


def two_node_topology():
    topo = Topology("pair")
    topo.add_node("a", group="east")
    topo.add_node("b", group="west")
    topo.set_link_symmetric("a", "b", NetemSpec(latency_ms=10, rate_mbit=8))
    return topo


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_node("a", "g")
    with pytest.raises(ConfigError):
        topo.add_node("a", "g")


def test_self_link_rejected():
    topo = Topology()
    topo.add_node("a", "g")
    topo.add_node("b", "g")
    with pytest.raises(ConfigError):
        topo.set_link("a", "a", NetemSpec(1, 1))


def test_groups_preserve_declaration_order():
    topo = Topology()
    topo.add_node("n1", "az1")
    topo.add_node("n2", "az2")
    topo.add_node("n3", "az1")
    assert topo.groups() == {"az1": ["n1", "n3"], "az2": ["n2"]}


def test_missing_link_spec_without_default_rejected():
    topo = Topology()
    topo.add_node("a", "g")
    topo.add_node("b", "g")
    sim = Simulator()
    with pytest.raises(ConfigError):
        topo.build(sim)


def test_default_spec_fills_gaps():
    topo = Topology()
    topo.add_node("a", "g")
    topo.add_node("b", "g")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    net = topo.build(Simulator())
    assert net.link("a", "b").latency_s == pytest.approx(0.005)


def test_send_delivers_to_bound_handler():
    sim = Simulator()
    net = two_node_topology().build(sim)
    got = []
    net.host("b").bind("app", lambda p: got.append((p.payload, sim.now)))
    net.send("a", "b", "app", "hello", 1000)
    sim.run()
    # 8 Mbit/s -> 1ms serialization + 10ms latency.
    assert got == [("hello", pytest.approx(0.011))]


def test_send_to_unbound_port_raises():
    sim = Simulator()
    net = two_node_topology().build(sim)
    net.send("a", "b", "ghost", "x", 10)
    with pytest.raises(NetworkError, match="no handler"):
        sim.run()


def test_packets_in_flight_to_an_unbound_port_are_dropped():
    sim = Simulator()
    net = two_node_topology().build(sim)
    got = []
    net.host("b").bind("app", got.append)
    net.send("a", "b", "app", "straggler", 10)
    net.host("b").unbind("app")  # closed like a socket, not never bound
    sim.run()
    assert got == []
    assert net.host("b").packets_received == 0


def test_loopback_send_rejected():
    net = two_node_topology().build(Simulator())
    with pytest.raises(NetworkError):
        net.send("a", "a", "app", "x", 10)


def test_partition_and_heal():
    sim = Simulator()
    net = two_node_topology().build(sim)
    got = []
    net.host("b").bind("app", lambda p: got.append(p.payload))
    net.partition(["a"], ["b"])
    assert net.send("a", "b", "app", "lost", 10) is False
    net.heal()
    net.send("a", "b", "app", "found", 10)
    sim.run()
    assert got == ["found"]


def test_crashed_node_drops_deliveries():
    sim = Simulator()
    net = two_node_topology().build(sim)
    got = []
    net.host("b").bind("app", lambda p: got.append(p.payload))
    net.crash_node("b")
    net.send("a", "b", "app", "x", 10)
    sim.run()
    assert got == []
    net.recover_node("b")
    net.send("a", "b", "app", "y", 10)
    sim.run()
    assert got == ["y"]


def test_remembered_route_still_sees_crashes_partitions_and_rebinds():
    """A link holds its two hosts for the network's lifetime; everything
    that can change about them afterwards — a crash of either end, a cut
    link, a rebound port — must still be honoured."""
    sim = Simulator()
    net = two_node_topology().build(sim)
    got = []
    net.host("b").bind("app", lambda p: got.append(("first", p.payload)))
    assert net.send("a", "b", "app", 1, 10) is True  # route now remembered
    net.crash_node("a")
    assert net.send("a", "b", "app", 2, 10) is False  # crashed sender emits nothing
    net.recover_node("a")
    net.partition(["a"], ["b"])
    assert net.send("a", "b", "app", 3, 10) is False
    assert net.link("a", "b").stats.packets_dropped == 1
    net.heal()
    net.host("b").bind("app", lambda p: got.append(("second", p.payload)))
    assert net.send("a", "b", "app", 4, 10) is True
    sim.run()
    assert got == [("second", 1), ("second", 4)]
    packet_stats = net.link("a", "b").stats
    assert (packet_stats.packets_sent, packet_stats.bytes_sent) == (2, 20)


def test_send_validates_the_pair_every_time_it_is_wrong():
    net = two_node_topology().build(Simulator())
    for _ in range(2):  # a bad pair is never remembered
        with pytest.raises(NetworkError, match="no link a->zz"):
            net.send("a", "zz", "app", "x", 10)
        with pytest.raises(NetworkError, match="unknown host"):
            net.send("zz", "a", "app", "x", 10)
    # A crashed sender emits nothing — checked before the destination, so
    # even a bad destination is only refused once the node is back.
    net.crash_node("a")
    assert net.send("a", "zz", "app", "x", 10) is False
    net.recover_node("a")
    with pytest.raises(NetworkError, match="no link a->zz"):
        net.send("a", "zz", "app", "x", 10)


def test_single_node_topology_rejected():
    topo = Topology()
    topo.add_node("only", "g")
    with pytest.raises(ConfigError):
        topo.build(Simulator())


def test_netem_spec_validation():
    with pytest.raises(ConfigError):
        NetemSpec(latency_ms=-1, rate_mbit=1)
    with pytest.raises(ConfigError):
        NetemSpec(latency_ms=1, rate_mbit=0)
