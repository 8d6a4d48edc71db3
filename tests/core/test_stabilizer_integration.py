"""End-to-end tests: full Stabilizer clusters over a simulated WAN."""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.dsl.stdlib import standard_predicates
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}


def build(latency_ms=10.0, rate_mbit=100.0, predicates=None, **config_kwargs):
    topo = Topology()
    for name in NODES:
        group = "east" if name in GROUPS["east"] else "west"
        topo.add_node(name, group)
    topo.set_default(NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates=predicates or {},
        control_interval_s=0.001,
        control_batch=4,
        **config_kwargs,
    )
    cluster = StabilizerCluster(net, config)
    return sim, net, cluster


def test_message_delivered_to_every_remote_node():
    sim, net, cluster = build()
    deliveries = {name: [] for name in NODES}
    for name in NODES:
        cluster[name].on_delivery(
            lambda origin, seq, payload, meta, _n=name: deliveries[_n].append(
                (origin, seq, payload)
            )
        )
    cluster["a"].send(b"hello wan")
    sim.run(until=1.0)
    for name in ("b", "c", "d"):
        assert deliveries[name] == [("a", 1, b"hello wan")]
    assert deliveries["a"] == []  # no self-delivery upcall


def test_sequence_numbers_are_one_based_and_contiguous():
    sim, net, cluster = build()
    a = cluster["a"]
    assert a.send(b"x") == 1
    assert a.send(b"y") == 2
    assert a.last_sent_seq() == 2


def test_large_message_spans_chunks_and_stabilizes_on_last():
    sim, net, cluster = build(chunk_bytes=1024)
    a = cluster["a"]
    seq = a.send(SyntheticPayload(10 * 1024))  # 10 chunks
    assert seq == 10
    a.register_predicate("AllWNodes", "MIN($ALLWNODES - $MYWNODE)")
    event = a.waitfor(seq, "AllWNodes")
    sim.run_until_triggered(event, limit=5.0)
    assert a.get_stability_frontier("AllWNodes") == 10


def test_waitfor_one_remote_node_latency_is_about_one_rtt():
    predicates = {"OneWNode": "MAX($ALLWNODES - $MYWNODE)"}
    sim, net, cluster = build(latency_ms=10.0, predicates=predicates)
    a = cluster["a"]
    seq = a.send(b"payload")
    event = a.waitfor(seq, "OneWNode")
    sim.run_until_triggered(event, limit=1.0)
    # one-way data + control batching (1 ms) + one-way ack ~= 21-24 ms.
    assert 0.018 < sim.now < 0.03


def test_stronger_predicates_stabilize_later():
    sim, net, cluster = build(predicates=standard_predicates(GROUPS, "a"))
    a = cluster["a"]
    times = {}
    seq = a.send(SyntheticPayload(8192))

    def track(key):
        event = a.waitfor(seq, key)
        event.add_callback(lambda e, k=key: times.setdefault(k, sim.now))
        return event

    for key in ("OneWNode", "MajorityWNodes", "AllWNodes"):
        track(key)
    sim.run(until=2.0)
    assert times["OneWNode"] <= times["MajorityWNodes"] <= times["AllWNodes"]


def test_remote_node_can_wait_on_origin_stream():
    predicates = {"AllWNodes": "MIN($ALLWNODES - $MYWNODE)"}
    sim, net, cluster = build(predicates=predicates)
    a, c = cluster["a"], cluster["c"]
    seq = a.send(b"data")
    event = c.waitfor(seq, "AllWNodes", origin="a")
    sim.run_until_triggered(event, limit=2.0)
    assert c.get_stability_frontier("AllWNodes", origin="a") >= seq


def test_origin_fanout_reports_only_to_origin():
    """Derived, not set: reports reach only the nodes that observe the
    stream — here the origin."""
    predicates = {"AllWNodes": "MIN($ALLWNODES - $MYWNODE)"}
    sim, net, cluster = build(predicates=predicates)
    a, c = cluster["a"], cluster["c"]
    seq = a.send(b"data")
    event = a.waitfor(seq, "AllWNodes")
    sim.run_until_triggered(event, limit=2.0)
    sim.run(until=sim.now + 0.5)
    # Nothing at c observes a's stream, so b and d have not told it what
    # they acknowledged: its own row and a's are all c's table holds ...
    assert c.tables["a"].snapshot()[1] == c.tables["a"].snapshot()[3] == [0, 0]
    # ... and a read answers with that lower bound.  Asking is observing:
    # one round trip later the answer is exact.
    assert c.get_stability_frontier("AllWNodes", origin="a") == 0
    sim.run(until=sim.now + 0.05)
    assert c.get_stability_frontier("AllWNodes", origin="a") == seq


def test_send_buffer_reclaimed_after_global_delivery():
    sim, net, cluster = build()
    a = cluster["a"]
    a.register_predicate("AllWNodes", "MIN($ALLWNODES - $MYWNODE)")
    seq = a.send(SyntheticPayload(8192))
    assert a.dataplane.buffer.buffered_bytes() == 8192
    event = a.waitfor(seq, "AllWNodes")
    sim.run_until_triggered(event, limit=2.0)
    sim.run(until=sim.now + 0.1)
    assert a.dataplane.buffer.buffered_bytes() == 0
    assert len(a.dataplane.buffer) == 0


def test_send_buffer_limit_enforced():
    sim, net, cluster = build(max_buffer_bytes=10_000)
    a = cluster["a"]
    a.send(SyntheticPayload(8000))
    with pytest.raises(StabilizerError, match="send buffer full"):
        a.send(SyntheticPayload(8000))


def test_report_stability_custom_type():
    sim, net, cluster = build(ack_types=["verified"])
    a, b = cluster["a"], cluster["b"]
    a.register_predicate("verified_all", "MIN(($ALLWNODES - $MYWNODE).verified)")
    got = []
    for name in ("b", "c", "d"):
        cluster[name].on_delivery(
            lambda origin, seq, payload, meta, _n=name: cluster[_n].report_stability(
                "verified", seq, origin=origin
            )
        )
    seq = a.send(b"check me")
    event = a.waitfor(seq, "verified_all")
    sim.run_until_triggered(event, limit=2.0)
    assert a.get_stability_frontier("verified_all") == seq


def test_register_stability_type_at_runtime():
    sim, net, cluster = build()
    a = cluster["a"]
    type_id = a.register_stability_type("countersigned")
    assert type_id == 2
    a.register_predicate("cs", "MAX($ALLWNODES.countersigned)")
    assert a.get_stability_frontier("cs") == 0
    with pytest.raises(StabilizerError):
        a.register_stability_type("countersigned")


def test_monitor_receives_monotone_frontiers():
    predicates = {"OneWNode": "MAX($ALLWNODES - $MYWNODE)"}
    sim, net, cluster = build(predicates=predicates)
    a = cluster["a"]
    seen = []
    a.monitor_stability_frontier("OneWNode", lambda o, new, old: seen.append(new))
    for _ in range(10):
        a.send(SyntheticPayload(4000))
    sim.run(until=2.0)
    assert seen, "monitor never fired"
    assert seen == sorted(seen)
    assert seen[-1] == 10


def test_change_predicate_switches_active():
    predicates = {
        "three": "KTH_MAX(3, $ALLWNODES - $MYWNODE)",
        "all": "MIN($ALLWNODES - $MYWNODE)",
    }
    sim, net, cluster = build(predicates=predicates)
    a = cluster["a"]
    assert a.active_predicate_key() == "three"
    a.change_predicate("all")
    assert a.active_predicate_key() == "all"
    seq = a.send(b"x")
    event = a.waitfor(seq)  # uses the active predicate
    sim.run_until_triggered(event, limit=2.0)
    assert a.get_stability_frontier("all") == seq


def test_crashed_node_blocks_strict_predicate_but_not_weak():
    predicates = {
        "AllWNodes": "MIN($ALLWNODES - $MYWNODE)",
        "OneWNode": "MAX($ALLWNODES - $MYWNODE)",
    }
    sim, net, cluster = build(predicates=predicates)
    net.crash_node("d")
    a = cluster["a"]
    seq = a.send(b"x")
    event = a.waitfor(seq, "OneWNode")
    sim.run_until_triggered(event, limit=2.0)
    sim.run(until=5.0)
    assert a.get_stability_frontier("OneWNode") == seq
    assert a.get_stability_frontier("AllWNodes") == 0


def test_predicate_adjustment_after_crash_unblocks():
    predicates = {"sync": "MIN($ALLWNODES - $MYWNODE)"}
    sim, net, cluster = build(predicates=predicates)
    net.crash_node("d")
    a = cluster["a"]
    seq = a.send(b"x")
    sim.run(until=3.0)
    assert a.get_stability_frontier("sync") == 0
    # The primary adjusts the predicate to exclude the crashed node.
    a.change_predicate("sync", "MIN($ALLWNODES - $MYWNODE - $WNODE_d)")
    sim.run(until=4.0)
    assert a.get_stability_frontier("sync") == seq


def three_nodes(**config_kwargs):
    """a, b, c on a uniform 10 ms, 100 Mbit/s WAN (a is the config's local)."""
    names = ["a", "b", "c"]
    topo = Topology.uniform(
        {name: name for name in names}, NetemSpec(latency_ms=10, rate_mbit=100)
    )
    sim = Simulator()
    config = StabilizerConfig(
        names, {name: [name] for name in names}, "a", **config_kwargs
    )
    return sim, StabilizerCluster(topo.build(sim), config)


def test_closing_a_node_with_packets_in_flight_to_it():
    sim, cluster = three_nodes()
    a = cluster["a"]
    for _ in range(5):
        a.send(b"x" * 100)
    sim.run(until=0.005)  # a's frames to b are on the wire
    cluster["b"].close()
    # What was in flight to b's closed transport port is dropped there,
    # as a closed socket drops it; c still gets everything.
    sim.run(until=1.0)
    assert cluster["c"].dataplane.highest_received("a") == 5


def test_a_late_delivery_handler_sees_every_later_message():
    # One 1000-byte chunk per frame, so an object arrives chunk by chunk.
    sim, cluster = three_nodes(chunk_bytes=1000, frame_bytes=1000)
    a, b, c = cluster["a"], cluster["b"], cluster["c"]
    first = bytes(range(250)) * 20  # five chunks
    a.send(first)
    sim.run(until=0.0102)  # b holds part of the object, nobody listens
    assert 0 < b.dataplane.highest_received("a") < 5
    delivered = []
    b.on_delivery(lambda origin, seq, payload, meta: delivered.append((seq, payload)))
    a.send(b"second")
    sim.run(until=1.0)
    # The object in progress when the handler came completes whole.
    assert [(seq, bytes(payload)) for seq, payload in delivered] == [
        (5, first),
        (6, b"second"),
    ]
    # c never listened and still reassembled: nothing is left in progress.
    assert c.dataplane.highest_received("a") == 6
    assert c.dataplane._objects == {}
    assert c.dataplane.on_deliver is None


def test_a_receiver_nobody_delivers_to_writes_the_same_wal():
    """A receiver with no handler assembles nothing, but its WAL takes
    every message: its durable image is the one a listening receiver's
    (the path that assembles) is."""
    images = []
    for listen in (True, False):
        sim, cluster = three_nodes(chunk_bytes=1000, frame_bytes=3000, durability=True)
        a, b = cluster["a"], cluster["b"]
        if listen:
            b.on_delivery(lambda origin, seq, payload, meta: None)
        for size in (5000, 10, 2500, 7100):
            a.send(bytes(range(256)) * (size // 256) + b"x" * (size % 256))
        sim.run(until=1.0)
        assert b.dataplane.highest_received("a") == 17
        assert (b.dataplane._objects, b.dataplane._kept) == ({}, {})
        images.append({path: b.fs.durable_bytes(path) for path in b.fs.listdir()})
        cluster.close()
    assert images[0] == images[1]
    assert sum(len(image) for image in images[0].values()) > 14_600
