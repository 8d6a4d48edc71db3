"""The control carrier: state over datagrams, repaired by re-sending it.

``docs/strategies.md``, "The carrier: state, not a stream".  Every
stabilization engine ships its frames as unreliable datagrams; these
tests drop, delay and reorder exactly those packets (the data plane's
reliable channels are left alone) and check the three repair mechanisms
— supersession, the tail probe, the anti-entropy heartbeat — plus the one
exception, the reliable resume request.  Everything is virtual time.
"""

import random

import pytest

from repro.core import StabilizerCluster, StabilizerConfig, snapshot_state
from repro.core.controlplane import CONTROL_CHANNEL
from repro.core.strategy import STRATEGY_NAMES
from repro.net import NetemSpec, Topology
from repro.sim import Simulator

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}
LATENCY_S = 0.010
RTT_S = 2 * LATENCY_S
FLUSH_S = 0.005
MIN_RTO_S = 0.05
FAILURE_TIMEOUT_S = 3.0
HEARTBEAT_S = FAILURE_TIMEOUT_S / 3.0

pytestmark = pytest.mark.parametrize("strategy", STRATEGY_NAMES)


def build(strategy, jitter_ms=0.0, control_interval_s=FLUSH_S, **config_kwargs):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, "east" if name in GROUPS["east"] else "west")
    topo.set_default(
        NetemSpec(latency_ms=LATENCY_S * 1e3, rate_mbit=100, jitter_ms=jitter_ms)
    )
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=control_interval_s,
        failure_timeout_s=FAILURE_TIMEOUT_S,
        transport_min_rto_s=MIN_RTO_S,
        stabilization_strategy=strategy,
        **config_kwargs,
    )
    return sim, net, StabilizerCluster(net, config)


def intercept(net, drop):
    """Route every packet through ``drop(src, dst, payload) -> bool``;
    returns the list of packets it dropped."""
    dropped = []
    real_send = net.send

    def send(src, dst, port, payload, size_bytes):
        if drop(src, dst, payload):
            dropped.append((net.sim.now, src, dst, payload))
            return False
        return real_send(src, dst, port, payload, size_bytes)

    net.send = send
    return dropped


def is_control(payload):
    return payload[0] == "dgram"


def stream(sim, node, count, rate_per_s, start=0.0):
    for i in range(count):
        sim.call_at(start + i / rate_per_s, node.send, b"x" * 64)


def frontiers(cluster, origin):
    return {
        node.name: node.get_stability_frontier("all", origin=origin)
        for node in cluster
    }


# -- (a) ---------------------------------------------------------------------
def test_heavy_control_loss_converges_after_quiescence(strategy):
    sim, net, cluster = build(strategy)
    rng = random.Random(7)
    dropped = intercept(
        net, lambda src, dst, p: is_control(p) and rng.random() < 0.30
    )
    stream(sim, cluster["a"], count=200, rate_per_s=200.0)
    # Loss never stops, so no single re-send is sure to land; each
    # heartbeat round is another independent try at every lost cell.
    sim.run(until=1.0 + 6 * HEARTBEAT_S)
    assert len(dropped) > 100
    assert frontiers(cluster, "a") == {name: 200 for name in NODES}
    assert cluster["a"].delivery_watermark() == 200


# -- (b) ---------------------------------------------------------------------
def test_lost_last_report_is_repaired_by_the_tail_probe(strategy):
    sim, net, cluster = build(strategy)
    a, d = cluster["a"], cluster["d"]
    sim.run(until=0.1)
    t0 = sim.now
    # d's only report about the message — nothing follows to supersede it.
    dropped = intercept(
        net,
        lambda src, dst, p: is_control(p)
        and (src, dst) == ("d", "a")
        and sim.now < t0 + 0.04,
    )
    seq = a.send(b"the only message")
    # Unharmed, the report lands one delivery, one flush and one trip
    # back after the send; this is well past that.
    sim.run(until=t0 + LATENCY_S + FLUSH_S + LATENCY_S + 0.015)
    assert dropped
    assert a.get_stability_frontier("all") < seq
    last_report = max(t for t, *_ in dropped)
    sim.run(until=last_report + MIN_RTO_S + RTT_S)
    assert a.get_stability_frontier("all") == seq
    assert sim.now < HEARTBEAT_S  # no heartbeat has fired yet
    if strategy != "hybrid_clock":
        # The clock engine never falls silent: its next periodic frame
        # supersedes the lost one before a probe is due.
        assert d.stats()["strategy.tail_probes"] >= 1


# -- (c) ---------------------------------------------------------------------
def test_quiet_origins_lost_report_is_repaired_by_the_heartbeat(strategy):
    sim, net, cluster = build(strategy)
    a, b, d = cluster["a"], cluster["b"], cluster["d"]
    # a streams throughout, so d's carrier never falls silent and its
    # tail probe never becomes due.
    stream(sim, a, count=600, rate_per_s=200.0)
    sim.run(until=0.2)
    t0 = sim.now
    dropped = intercept(
        net,
        lambda src, dst, p: is_control(p) and src == "d" and sim.now < t0 + 0.04,
    )
    seq = b.send(b"b's only message")
    sim.run(until=t0 + MIN_RTO_S + 2 * RTT_S + 0.1)
    assert dropped
    assert d.stats()["strategy.tail_probes"] == 0
    if strategy == "hybrid_clock":
        # Clock frames are whole state: the next one repairs the loss.
        assert b.get_stability_frontier("all") == seq
        return
    # d's later reports carry a's cells only; b's stays lost ...
    assert b.get_stability_frontier("all") < seq
    # ... until d's next heartbeat re-sends its full state.
    sim.run(until=t0 + HEARTBEAT_S + RTT_S)
    assert b.get_stability_frontier("all") == seq
    assert d.stats()["strategy.tail_probes"] == 0


# -- (d) ---------------------------------------------------------------------
def test_reordered_reports_never_regress_a_cell(strategy):
    # Reports 1 ms apart under 5 ms of jitter overtake each other often.
    sim, net, cluster = build(strategy, jitter_ms=5.0, control_interval_s=0.001)
    sent, arrived = {}, {}

    def number(src, dst, payload):
        if is_control(payload):
            order = sent.setdefault((src, dst), {})
            order[id(payload[1])] = (len(order), payload)  # keeps the id alive
        return False

    intercept(net, number)
    for node in cluster:
        deliver = node.endpoint.on_datagram

        def on_datagram(src, body, _deliver=deliver, _dst=node.name):
            arrived.setdefault((src, _dst), []).append(sent[(src, _dst)][id(body)][0])
            _deliver(src, body)

        node.endpoint.on_datagram = on_datagram

    stream(sim, cluster["a"], count=200, rate_per_s=400.0)
    stream(sim, cluster["c"], count=200, rate_per_s=400.0)

    def cells():
        return [
            table.snapshot()
            for node in cluster
            for _origin, table in sorted(node.tables.items())
        ]

    before = cells()
    while sim.step() and sim.now <= 1.5:
        after = cells()
        for old_table, new_table in zip(before, after):
            for old_row, new_row in zip(old_table, new_table):
                assert all(o <= n for o, n in zip(old_row, new_row))
        before = after
    overtaken = sum(
        1
        for order in arrived.values()
        for earlier, later in zip(order, order[1:])
        if later < earlier
    )
    assert overtaken > 0  # the jitter did reorder control frames
    assert frontiers(cluster, "a") == {name: 200 for name in NODES}
    assert frontiers(cluster, "c") == {name: 200 for name in NODES}


# -- (e) ---------------------------------------------------------------------
def test_resume_request_survives_its_first_packet_being_dropped(strategy):
    sim, net, cluster = build(
        strategy, max_retransmit_attempts=5, transport_max_rto_s=1.0
    )
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.5)
    snapshot = snapshot_state(cluster["d"])
    cluster["d"].close()
    net.crash_node("d")
    missed = [a.send(b"while d is down %d" % i) for i in range(5)]
    sim.run(until=1.5)

    def first_resume_to_a(src, dst, payload):
        return (
            (src, dst) == ("d", "a")
            and payload[0] == "data"
            and payload[1] == CONTROL_CHANNEL
            and not dropped
        )

    dropped = intercept(net, first_resume_to_a)
    net.recover_node("d")
    d = cluster.restart_node("d", snapshot)
    sim.run(until=4.0)
    assert len(dropped) == 1
    assert d.endpoint.channel("a", CONTROL_CHANNEL).retransmissions >= 1
    assert d.dataplane.highest_received("a") == missed[-1]
    assert frontiers(cluster, "a") == {name: missed[-1] for name in NODES}


# -- (f) ---------------------------------------------------------------------
def test_steady_state_holds_no_control_channel_or_transport_timer(strategy):
    sim, net, cluster = build(strategy)
    stream(sim, cluster["a"], count=100, rate_per_s=200.0)
    stream(sim, cluster["c"], count=100, rate_per_s=200.0)
    sim.run(until=0.25)  # mid-stream
    for node in cluster:
        assert {name for (_peer, name) in node.endpoint.channels()} == {"stab.data"}
    sim.run(until=1.9)  # quiescent: every data frame delivered and acked
    assert frontiers(cluster, "a") == {name: 100 for name in NODES}
    for node in cluster:
        channels = node.endpoint.channels()
        assert {name for (_peer, name) in channels} == {"stab.data"}
        for channel in channels.values():
            assert channel._retransmit_timer is None
            assert channel._ack_timer is None
    # What is left on the heap is one heartbeat and one failure-detector
    # tick per node — and for the clock engine, which never falls
    # silent, its broadcast timer, the frames in flight and the one
    # tail-probe timer trailing them.  No timer belongs to a frame.
    in_flight = sum(link.stats.packets_sent for link in net.links.values()) - sum(
        host.packets_received for host in net.hosts.values()
    )
    assert in_flight == (12 if strategy == "hybrid_clock" else 0)
    per_node = 4 if strategy == "hybrid_clock" else 2
    assert sim.pending_count() - in_flight == per_node * len(NODES)


# -- suspicion without a control FIFO ------------------------------------------
def test_peer_that_gets_no_data_is_suspected_by_silence_alone(strategy):
    # A tight retry budget: were control frames still on a reliable
    # channel, its give-up would report d dead long before the timeout.
    sim, net, cluster = build(
        strategy, max_retransmit_attempts=2, transport_max_rto_s=0.2
    )
    b = cluster["b"]
    net.crash_node("d")  # dies before it has sent a single frame
    sim.run(until=FAILURE_TIMEOUT_S - 0.1)
    assert b.suspected_nodes() == set()
    sim.run(until=1.5 * FAILURE_TIMEOUT_S + 0.1)
    assert b.suspected_nodes() == {"d"}
    assert "transport_dead" not in [kind for _t, kind, _p in b.degradation_log()]
    assert b.stats()["transport_suspensions"] == 0
