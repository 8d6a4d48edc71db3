"""Tests for the Pulsar baseline model: GC pauses, drops, buffering fix."""

import pytest

from repro.net import NetemSpec, Topology
from repro.pubsub import GcModel, PulsarCluster
from repro.pubsub.pulsar import BASE_PAUSE_S, CPU_PER_MESSAGE_S, MAX_PAUSE_S, YOUNG_GEN_BYTES
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload


def build(rate_mbit=100.0, latency_ms=10.0, **kwargs):
    topo = Topology()
    topo.add_node("a", "g1")
    topo.add_node("b", "g2")
    topo.set_link_symmetric("a", "b", NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit))
    sim = Simulator()
    net = topo.build(sim)
    cluster = PulsarCluster(net, **kwargs)
    return sim, net, cluster


def test_publish_reaches_remote_subscriber():
    sim, net, cluster = build(gc_enabled=False)
    got = []
    cluster["b"].subscribe(lambda origin, seq, payload, meta: got.append((origin, seq, payload)))
    cluster["a"].publish(b"msg")
    sim.run(until=1.0)
    assert got == [("a", 1, b"msg")]


def test_ack_flows_back_to_publisher():
    sim, net, cluster = build(gc_enabled=False, latency_ms=20.0)
    cluster["b"].subscribe(lambda *a: None)
    seq = cluster["a"].publish(SyntheticPayload(8192))
    sim.run(until=1.0)
    ack_time = cluster["a"].ack_times[("b", seq)]
    send_time = cluster["a"].send_times[seq]
    # one-way data + one-way ack ~= 40 ms plus serialization.
    assert 0.04 < ack_time - send_time < 0.06


def test_gc_model_pauses_accumulate():
    gc = GcModel()
    costs = [gc.process(1_000_000) for _ in range(20)]
    assert gc.collections == 7  # 60 MB allocated / 8 MB budget
    assert sum(costs) > 7 * BASE_PAUSE_S
    assert gc.total_pause_s >= 7 * BASE_PAUSE_S


def test_gc_pause_growth_is_capped():
    gc = GcModel()
    # One collection per call; the pause grows for 135 of them.
    for _ in range(200):
        gc.process(YOUNG_GEN_BYTES)
    # Later pauses are clamped at MAX_PAUSE_S.
    assert gc.process(YOUNG_GEN_BYTES) - CPU_PER_MESSAGE_S == pytest.approx(MAX_PAUSE_S)


def test_gc_increases_latency_at_high_rate():
    """The Fig. 7 LAN observation: Pulsar latency grows with rate even
    when bandwidth is nowhere near saturated."""

    def run(with_gc):
        sim, net, cluster = build(rate_mbit=10_000, latency_ms=0.1, gc_enabled=with_gc)
        cluster["b"].subscribe(lambda *a: None)
        broker = cluster["a"]

        def feeder():
            for _ in range(3000):
                broker.publish(SyntheticPayload(8192))
                yield 1.0 / 8000.0  # 8000 msg/s

        proc = sim.spawn(feeder())
        proc.add_callback(lambda e: None)
        sim.run(until=5.0)
        latencies = [
            broker.ack_times[("b", seq)] - broker.send_times[seq]
            for seq in broker.send_times
            if ("b", seq) in broker.ack_times
        ]
        assert latencies
        return sum(latencies) / len(latencies)

    assert run(with_gc=True) > 2 * run(with_gc=False)


def test_original_pulsar_drops_on_backlogged_link():
    sim, net, cluster = build(rate_mbit=8.0, gc_enabled=False, buffer_fix=False)
    got = []
    cluster["b"].subscribe(lambda origin, seq, payload, meta: got.append(seq))
    broker = cluster["a"]
    # 8 Mbit/s = 1 MB/s; 300 x 10 KB = 3 MB submitted instantly: the
    # backlog blows past DROP_BACKLOG_S (1 s) and later publishes are
    # dropped.
    for _ in range(300):
        broker.publish(SyntheticPayload(10_000))
    sim.run(until=10.0)
    assert broker.dropped > 0
    assert len(got) == 300 - broker.dropped


def test_buffer_fix_preserves_every_message_and_order():
    sim, net, cluster = build(rate_mbit=8.0, gc_enabled=False, buffer_fix=True)
    got = []
    cluster["b"].subscribe(lambda origin, seq, payload, meta: got.append(seq))
    broker = cluster["a"]
    for _ in range(300):
        broker.publish(SyntheticPayload(10_000))
    sim.run(until=20.0)
    assert broker.dropped == 0
    assert got == list(range(1, 301))
