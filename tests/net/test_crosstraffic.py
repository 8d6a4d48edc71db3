"""Cross-traffic flow tests."""

import pytest

from repro.errors import NetworkError
from repro.net import NetemSpec, Topology
from repro.net.crosstraffic import CrossTrafficFlow, congest_region
from repro.sim import Simulator


def build():
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.add_node("c", "west")
    topo.set_default(NetemSpec(latency_ms=10, rate_mbit=8))
    sim = Simulator()
    return sim, topo.build(sim)


def test_flow_consumes_configured_fraction():
    sim, net = build()
    flow = CrossTrafficFlow(net, "a", "b", rate_bps=4e6)  # half of 8 Mbit
    flow.start()
    sim.run(until=1.0)
    flow.stop()
    sent_bits = flow.packets_sent * 1500 * 8
    assert sent_bits == pytest.approx(4e6, rel=0.02)
    sim.run(until=2.0)
    assert flow.packets_sent * 1500 * 8 == sent_bits  # stopped means stopped


def test_flow_delays_foreground_traffic():
    """A foreground burst that fits an idle link overloads one carrying
    95% cross-traffic, so its completion time stretches."""

    def burst_completion(with_cross):
        sim, net = build()
        arrivals = []
        net.host("b").bind("fg", lambda p: arrivals.append(sim.now))
        if with_cross:
            flow = CrossTrafficFlow(net, "a", "b", rate_bps=7.6e6)  # 95%
            flow.start()
            sim.run(until=0.5)
        start = sim.now

        def paced_sender():
            # ~6.5 Mbit/s: fits the idle 8 Mbit link, overloads it at 95%.
            for _ in range(20):
                net.send("a", "b", "fg", b"x", 8192)
                yield 0.01

        process = sim.spawn(paced_sender())
        process.add_callback(lambda _e: None)
        sim.run(until=start + 30.0)
        assert len(arrivals) == 20
        return arrivals[-1] - start

    idle = burst_completion(with_cross=False)
    congested = burst_completion(with_cross=True)
    assert congested > idle * 1.5


def test_start_is_idempotent():
    sim, net = build()
    flow = CrossTrafficFlow(net, "a", "b", rate_bps=1e6)
    flow.start()
    flow.start()
    sim.run(until=0.1)
    flow.stop()
    assert flow.packets_sent > 0


def test_validation():
    sim, net = build()
    with pytest.raises(NetworkError):
        CrossTrafficFlow(net, "a", "b", rate_bps=0)
    with pytest.raises(NetworkError):
        congest_region(net, "west", fraction=1.5)
    with pytest.raises(NetworkError):
        congest_region(net, "mars", fraction=0.5)


def test_congest_region_targets_all_members():
    sim, net = build()
    flows = congest_region(net, "west", fraction=0.5, from_node="a")
    assert {(f.src, f.dst) for f in flows} == {("a", "b"), ("a", "c")}
    sim.run(until=0.2)
    for flow in flows:
        assert flow.packets_sent > 0
        flow.stop()


def test_congest_region_all_sources_skips_internal_links():
    sim, net = build()
    flows = congest_region(net, "west", fraction=0.3)
    pairs = {(f.src, f.dst) for f in flows}
    assert ("b", "c") not in pairs  # intra-region links untouched
    assert ("a", "b") in pairs and ("a", "c") in pairs
    for flow in flows:
        flow.stop()
