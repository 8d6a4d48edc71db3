"""The control carrier: state over datagrams, repaired by re-sending it.

``docs/strategies.md``, "The carrier: state, not a stream".  Every
stabilization engine ships its frames as unreliable datagrams; these
tests drop, delay and reorder exactly those packets (the data plane's
reliable channels are left alone) and check the three repair mechanisms
— supersession, the tail probe, the anti-entropy heartbeat — plus the one
exception, the reliable resume request.  The last section is the carrier's
other job, interest ("Fan-out follows demand" in the same document): who
observes which origin, announced over the same lossy datagrams and failing
safe — a node its peers know too little about is sent too much, never too
little.  Everything is virtual time.
"""

import random

import pytest

from repro.core import StabilizerCluster, StabilizerConfig, snapshot_state
from repro.core.controlplane import CONTROL_CHANNEL, TAIL_PROBE_S
from repro.core.strategy import STRATEGY_NAMES
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.messages import InterestFrame

from tests.wiretap import Tap

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}
LATENCY_S = 0.010
RTT_S = 2 * LATENCY_S
FLUSH_S = 0.005
FAILURE_TIMEOUT_S = 3.0
HEARTBEAT_S = FAILURE_TIMEOUT_S / 3.0

pytestmark = pytest.mark.parametrize("strategy", STRATEGY_NAMES)


#: A type only the carrier moves: the data channel's ACK is a received
#: report, never a verified one (see ``verify_every_delivery``).
VERIFIED = "MIN(($ALLWNODES - $MYWNODE).verified)"


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
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)", "ver": VERIFIED},
        ack_types=["verified"],
        control_interval_s=control_interval_s,
        failure_timeout_s=FAILURE_TIMEOUT_S,
        stabilization_strategy=strategy,
        **config_kwargs,
    )
    return sim, net, StabilizerCluster(net, config)


def stream(sim, node, count, rate_per_s, start=0.0):
    for i in range(count):
        sim.call_at(start + i / rate_per_s, node.send, b"x" * 64)


def verify_every_delivery(cluster):
    """Every node reports ``verified`` for each message it is delivered,
    at once: a grant that travels in the engine's control frames."""
    for node in cluster:
        node.on_delivery(
            lambda origin, seq, _payload, _meta, node=node: node.report_stability(
                "verified", seq, origin
            )
        )


def frontiers(cluster, origin):
    return {
        node.name: node.get_stability_frontier("all", origin=origin)
        for node in cluster
    }


# -- (a) ---------------------------------------------------------------------
def test_heavy_control_loss_converges_after_quiescence(strategy):
    sim, net, cluster = build(strategy)
    rng = random.Random(7)
    tap = Tap(net, "dgram", lambda src, dst, p: rng.random() < 0.30)
    stream(sim, cluster["a"], count=200, rate_per_s=200.0)
    # Loss never stops, so no single re-send is sure to land; each
    # heartbeat round is another independent try at every lost cell.
    sim.run(until=1.0 + 6 * HEARTBEAT_S)
    assert len(tap.dropped) > 100
    assert frontiers(cluster, "a") == {name: 200 for name in NODES}
    assert cluster["a"].delivery_watermark() == 200


# -- (b) ---------------------------------------------------------------------
def test_lost_last_report_is_repaired_by_the_tail_probe(strategy):
    sim, net, cluster = build(strategy)
    verify_every_delivery(cluster)
    a, d = cluster["a"], cluster["d"]
    sim.run(until=0.1)
    t0 = sim.now
    # d's only report about the message — nothing follows to supersede it.
    tap = Tap(
        net, "dgram", lambda src, dst, p: (src, dst) == ("d", "a") and sim.now < t0 + 0.04
    )
    seq = a.send(b"the only message")
    # Unharmed, the report lands one delivery, one flush and one trip
    # back after the send; this is well past that.
    sim.run(until=t0 + LATENCY_S + FLUSH_S + LATENCY_S + 0.015)
    assert tap.dropped
    assert a.get_stability_frontier("ver") < seq
    if strategy == "acktable":
        # d's received report was never a datagram: its data ACK carried it.
        assert a.get_stability_frontier("all") == seq
    last_report = max(t for t, *_ in tap.dropped)
    sim.run(until=last_report + TAIL_PROBE_S + RTT_S)
    assert a.get_stability_frontier("ver") == seq
    assert sim.now < HEARTBEAT_S  # no heartbeat has fired yet
    assert d.stats()["strategy.tail_probes"] >= 1


# -- (c) ---------------------------------------------------------------------
def test_quiet_origins_lost_report_is_repaired_by_the_heartbeat(strategy):
    sim, net, cluster = build(strategy)
    verify_every_delivery(cluster)
    a, b, d = cluster["a"], cluster["b"], cluster["d"]
    # a streams throughout, so d's carrier never falls silent and its
    # tail probe never becomes due.
    stream(sim, a, count=600, rate_per_s=200.0)
    sim.run(until=0.2)
    t0 = sim.now
    tap = Tap(net, "dgram", lambda src, dst, p: src == "d" and sim.now < t0 + 0.04)
    seq = b.send(b"b's only message")
    sim.run(until=t0 + TAIL_PROBE_S + 2 * RTT_S + 0.1)
    assert tap.dropped
    assert d.stats()["strategy.tail_probes"] == 0
    # d's later reports carry a's cells only; b's stays lost ...
    assert b.get_stability_frontier("ver") < seq
    # ... until d's next heartbeat re-sends its full state.
    sim.run(until=t0 + HEARTBEAT_S + RTT_S)
    assert b.get_stability_frontier("ver") == seq
    assert d.stats()["strategy.tail_probes"] == 0


# -- (d) ---------------------------------------------------------------------
def test_reordered_reports_never_regress_a_cell(strategy):
    # Reports 1 ms apart under 5 ms of jitter overtake each other often.
    sim, net, cluster = build(strategy, jitter_ms=5.0, control_interval_s=0.001)
    sent, arrived = {}, {}

    def number(src, dst, payload):
        order = sent.setdefault((src, dst), {})
        order[id(payload[1])] = (len(order), payload)  # keeps the id alive
        return False

    tap = Tap(net, "dgram", number)
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
    assert tap.seen
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
            and payload[1] == CONTROL_CHANNEL
            and not tap.dropped
        )

    tap = Tap(net, "data", first_resume_to_a)
    net.recover_node("d")
    d = cluster.restart_node("d", snapshot)
    sim.run(until=4.0)
    assert len(tap.dropped) == 1
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
    for node in cluster:
        channels = node.endpoint.channels()
        assert {name for (_peer, name) in channels} == {"stab.data"}
        for channel in channels.values():
            assert channel._retransmit_timer is None
            assert channel._ack_timer is None
    # What is left on the heap is one heartbeat and one failure-detector
    # tick per node, and nothing is in flight.  No timer belongs to a
    # frame.
    in_flight = sum(link.stats.packets_sent for link in net.links.values()) - sum(
        host.packets_received for host in net.hosts.values()
    )
    assert in_flight == 0
    assert sim.pending_count() == 2 * len(NODES)
    # Read last: under the ACK-table engine a read at a node that does not
    # observe the stream is itself an observation and announces it (the
    # interest cases below), which would put datagrams in flight.
    assert frontiers(cluster, "a") == {name: 100 for name in NODES}


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


# -- interest ------------------------------------------------------------------
# Nobody in build()'s cluster monitors anything, so under the ACK-table
# engine every node announces at start-up that it observes its own stream
# only; the bulk-set engines broadcast and never announce.


def interest_in(payload):
    """The interest statement a packet carries: by itself, or riding
    behind a state frame.  None for any other packet."""
    if payload[0] != "dgram":
        return None
    body = payload[1]
    if isinstance(body[1], InterestFrame):
        return body[1]
    return body[2] if len(body) > 2 else None


def observers(cluster, at, origin):
    return set(cluster[at].controlplane.observers[origin])


def test_an_all_observing_cluster_puts_no_interest_on_the_wire(strategy):
    sim, net, cluster = build(strategy)
    tap = Tap(net, "dgram", lambda src, dst, p: interest_in(p) is not None)
    if strategy == "acktable":
        for node in cluster:
            node.monitor_stability_frontier("all", lambda *advance: None)
    stream(sim, cluster["a"], count=100, rate_per_s=200.0)
    sim.run(until=2 * HEARTBEAT_S + 0.1)
    assert tap.seen  # control datagrams crossed the tap ...
    assert tap.dropped == []  # ... and none stated an interest
    for node in cluster:
        stats = node.stats()
        assert stats["strategy.interest_announcements"] == 0
        assert stats.get("strategy.acktable.reports_withheld", 0) == 0
        assert all(observers(cluster, node.name, o) == set(NODES) - {node.name} for o in NODES)


def test_a_dropped_widening_is_repaired_by_the_next_heartbeat(strategy):
    if strategy != "acktable":
        pytest.skip("broadcasts: no interest to announce")
    sim, net, cluster = build(strategy)
    stream(sim, cluster["a"], count=400, rate_per_s=200.0)
    sim.run(until=0.2)
    assert observers(cluster, "b", "a") == {"a"}
    # c starts to wait on a's stream and says so to everyone; b never hears.
    tap = Tap(
        net,
        "dgram",
        lambda src, dst, p: (src, dst) == ("c", "b")
        and interest_in(p) is not None
        and sim.now < HEARTBEAT_S,
    )
    cluster["c"].waitfor(400, "all", origin="a")
    sim.run(until=HEARTBEAT_S - 0.01)
    assert len(tap.dropped) == 1
    assert observers(cluster, "d", "a") == {"a", "c"}
    assert observers(cluster, "b", "a") == {"a"}  # b: still withholding
    b_row = NODES.index("b")
    assert cluster["c"].tables["a"].get(b_row, 0) == 0
    # c's heartbeat restates what it observes, in the datagram it sends
    # anyway: no announcement of its own.
    announced = cluster["c"].stats()["strategy.interest_announcements"]
    sim.run(until=HEARTBEAT_S + LATENCY_S + 0.001)
    assert cluster["c"].stats()["strategy.interest_announcements"] == announced
    assert observers(cluster, "b", "a") == {"a", "c"}
    # b answers with its rows, and its live reports follow.
    sim.run(until=HEARTBEAT_S + RTT_S + FLUSH_S + 0.005)
    assert (
        cluster["c"].tables["a"].get(b_row, 0)
        == cluster["a"].tables["a"].get(b_row, 0)
        > 200
    )


def test_of_two_reordered_announcements_the_newer_version_stands(strategy):
    if strategy != "acktable":
        pytest.skip("broadcasts: no interest to announce")
    sim, net, cluster = build(strategy)
    sim.run(until=0.1)
    tap = Tap(
        net,
        "dgram",
        lambda src, dst, p: (src, dst) == ("c", "b") and interest_in(p) is not None,
    )
    c = cluster["c"]
    c.waitfor(1, "all", origin="a")  # c observes {c, a} ...
    c.waitfor(1, "all", origin="d")  # ... then {c, a, d}
    held = [payload for _at, _src, _dst, payload, _size in tap.dropped]
    older, newer = (interest_in(payload) for payload in held)
    assert older.version < newer.version
    deliver = cluster["b"].endpoint.on_datagram
    deliver("c", held[1][1])
    assert {o for o in NODES if "c" in observers(cluster, "b", o)} == {"a", "c", "d"}
    deliver("c", held[0][1])  # overtaken on the way: says nothing any more
    assert {o for o in NODES if "c" in observers(cluster, "b", o)} == {"a", "c", "d"}
    deliver("c", held[1][1])  # and a duplicate changes nothing either
    assert {o for o in NODES if "c" in observers(cluster, "b", o)} == {"a", "c", "d"}


def test_a_widening_is_answered_with_exactly_one_resend_of_state(strategy):
    if strategy != "acktable":
        pytest.skip("broadcasts: no interest to announce")
    sim, net, cluster = build(strategy)
    stream(sim, cluster["a"], count=100, rate_per_s=200.0)
    sim.run(until=0.2)
    resent = []
    for node in cluster:
        real = node.controlplane.resend_state

        def resend_state(peer, _real=real, _at=node.name):
            resent.append((_at, peer))
            _real(peer)

        node.controlplane.resend_state = resend_state
    cluster["c"].waitfor(100, "all", origin="a")
    sim.run(until=0.2 + LATENCY_S + 0.001)
    assert sorted(resent) == [("a", "c"), ("b", "c"), ("d", "c")]
    # A second waiter on the same stream widens nothing ...
    cluster["c"].waitfor(90, "all", origin="a")
    sim.run(until=0.3)
    assert len(resent) == 3
    # ... and when both are released c goes on being served until its
    # heartbeat says it observes less — which, being no widening, is
    # answered by nothing beyond everybody's own heartbeat.
    sim.run(until=HEARTBEAT_S - 0.01)
    assert cluster["c"].stats()["pending_waiters"] == 0
    assert observers(cluster, "b", "a") == {"a", "c"}
    del resent[:]
    sim.run(until=HEARTBEAT_S + LATENCY_S + 0.001)
    assert sorted(resent) == sorted((at, p) for at in NODES for p in NODES if p != at)
    assert observers(cluster, "b", "a") == {"a"}


def test_a_restarted_peer_is_served_everything_until_it_speaks_again(strategy):
    if strategy != "acktable":
        pytest.skip("broadcasts: no interest to announce")
    sim, net, cluster = build(strategy)
    stream(sim, cluster["a"], count=40, rate_per_s=200.0)
    d = cluster["d"]
    # d's first life states its interest three times over: own stream only
    # at start-up, a's stream too while it waits on it, and (at the
    # heartbeat after the release) own stream only again.
    sim.call_at(0.1, d.waitfor, 40, "all", "a")
    sim.run(until=HEARTBEAT_S + 0.1)
    assert d.controlplane._interest_frame.version == 3
    assert observers(cluster, "b", "a") == {"a"}
    snapshot = snapshot_state(d)
    d.close()
    net.crash_node("d")
    sim.run(until=HEARTBEAT_S + 0.5)
    net.recover_node("d")
    restarted_at = sim.now
    # The new life's own announcement is lost; its resume request is not.
    tap = Tap(
        net,
        "dgram",
        lambda src, dst, p: src == "d"
        and interest_in(p) is not None
        and sim.now < restarted_at + 0.1,
    )
    d = cluster.restart_node("d", snapshot)
    d.waitfor(45, "all", origin="a")  # this life does observe a's stream
    sim.run(until=restarted_at + 0.1)
    assert len(tap.dropped) == len(NODES) - 1
    # Peers forgot the previous life: whatever d may want, it is sent.
    for origin in NODES:
        assert "d" in observers(cluster, "b", origin)
    # Its first heartbeat says what it wants, as version 1 — below anything
    # the previous life reached, and believed all the same.
    sim.run(until=restarted_at + HEARTBEAT_S + LATENCY_S + 0.001)
    assert d.controlplane._interest_frame.version == 1
    assert {o for o in NODES if "d" in observers(cluster, "b", o)} == {"a", "d"}
