"""Cross-module fault-tolerance tests: partitions, loss, crashes, and the
monotone-frontier invariant end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.paxos import PaxosCluster
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.transport.messages import SyntheticPayload

NODES = ["a", "b", "c", "d"]


def build(loss_rate=0.0, seed=0, **config_kwargs):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(
        NetemSpec(latency_ms=10, rate_mbit=100, loss_rate=loss_rate)
    )
    sim = Simulator()
    net = topo.build(sim, RngRegistry(seed))
    config = StabilizerConfig(
        NODES,
        {n: [n] for n in NODES},
        "a",
        predicates={
            "one": "MAX($ALLWNODES - $MYWNODE)",
            "all": "MIN($ALLWNODES - $MYWNODE)",
        },
        control_interval_s=0.002,
        **config_kwargs,
    )
    return sim, net, StabilizerCluster(net, config)


def test_stability_survives_packet_loss():
    """The lossless-FIFO transport hides a 15%-lossy WAN from Stabilizer:
    every message still reaches full stability, in order."""
    sim, net, cluster = build(loss_rate=0.15, seed=11)
    a = cluster["a"]
    last = 0
    for _ in range(30):
        last = a.send(SyntheticPayload(4096))
    event = a.waitfor(last, "all")
    sim.run_until_triggered(event, limit=120.0)
    for name in ("b", "c", "d"):
        assert cluster[name].dataplane.highest_received("a") == last


def test_partition_stalls_then_heal_recovers():
    sim, net, cluster = build()
    a = cluster["a"]
    seq1 = a.send(b"before partition")
    sim.run_until_triggered(a.waitfor(seq1, "all"), limit=5.0)

    net.partition(["a"], ["d"])
    seq2 = a.send(b"during partition")
    sim.run(until=sim.now + 3.0)
    assert a.get_stability_frontier("one") >= seq2  # b, c still ack
    assert a.get_stability_frontier("all") == seq1  # d is cut off

    net.heal()
    event = a.waitfor(seq2, "all")
    sim.run_until_triggered(event, limit=sim.now + 30.0)
    assert cluster["d"].dataplane.highest_received("a") == seq2


def test_concurrent_origins_do_not_interfere():
    """Every node is a primary for its own pool; streams are independent
    and each origin's frontier tracks only its own acknowledgments."""
    sim, net, cluster = build()
    seqs = {}
    for name in NODES:
        for _ in range(5):
            seqs[name] = cluster[name].send(SyntheticPayload(2048))
    # Every node waits on every stream, its own and the others': a waiter
    # on a remote stream is what makes its reports flow to this node.
    events = [
        cluster[observer].waitfor(seqs[origin], "all", origin=origin)
        for observer in NODES
        for origin in NODES
    ]
    for event in events:
        sim.run_until_triggered(event, limit=30.0)
    for observer in NODES:
        for origin in NODES:
            if origin == observer:
                continue
            assert (
                cluster[observer].dataplane.highest_received(origin)
                == seqs[origin]
            )
            # Observers agree on every origin's frontier.
            assert (
                cluster[observer].get_stability_frontier("all", origin=origin)
                == seqs[origin]
            )


def test_monitor_values_monotone_under_loss_and_load():
    sim, net, cluster = build(loss_rate=0.1, seed=5)
    a = cluster["a"]
    seen = {"one": [], "all": []}
    for key in seen:
        a.monitor_stability_frontier(
            key, lambda origin, new, old, _k=key: seen[_k].append((old, new))
        )
    for _ in range(40):
        a.send(SyntheticPayload(1024))
    sim.run(until=60.0)
    for key, pairs in seen.items():
        values = [new for _old, new in pairs]
        assert values == sorted(values), f"{key} regressed"
        assert values[-1] == 40
        for old, new in pairs:
            assert new > old


def test_crash_after_partial_replication_then_restart():
    """A crashed secondary misses traffic; after recovery the transport's
    go-back-N retransmission brings it back in step."""
    sim, net, cluster = build()
    a = cluster["a"]
    seq1 = a.send(b"everyone gets this")
    sim.run_until_triggered(a.waitfor(seq1, "all"), limit=5.0)
    net.crash_node("d")
    seq2 = a.send(b"d misses this")
    sim.run(until=sim.now + 2.0)
    assert cluster["d"].dataplane.highest_received("a") == seq1
    net.recover_node("d")
    event = a.waitfor(seq2, "all")
    sim.run_until_triggered(event, limit=sim.now + 30.0)
    assert cluster["d"].dataplane.highest_received("a") == seq2


def test_paxos_under_loss_commits_everything_in_order():
    topo = Topology()
    for name in ("p", "q", "r"):
        topo.add_node(name, group="g")
    topo.set_default(NetemSpec(latency_ms=8, rate_mbit=100, loss_rate=0.15))
    sim = Simulator()
    net = topo.build(sim, RngRegistry(3))
    cluster = PaxosCluster(net, leader="p")
    applied = []
    cluster["q"].on_apply = lambda inst, payload, meta: applied.append(inst)
    events = [cluster.submit(SyntheticPayload(512)) for _ in range(20)]
    for event in events:
        sim.run_until_triggered(event, limit=120.0)
    sim.run(until=sim.now + 5.0)
    assert applied == list(range(1, 21))


@given(
    sizes=st.lists(st.integers(1, 60_000), min_size=1, max_size=12),
    loss=st.sampled_from([0.0, 0.05, 0.2]),
    seed=st.integers(0, 50),
)
@settings(max_examples=15, deadline=None)
def test_property_every_send_reaches_full_stability(sizes, loss, seed):
    """For arbitrary message sizes and loss rates, the frontier of the
    strictest predicate eventually equals the last sequence sent, and the
    send buffer fully drains (global delivery reclaims everything)."""
    sim, net, cluster = build(loss_rate=loss, seed=seed)
    a = cluster["a"]
    last = 0
    for size in sizes:
        last = a.send(SyntheticPayload(size))
    event = a.waitfor(last, "all")
    sim.run_until_triggered(event, limit=600.0)
    sim.run(until=sim.now + 2.0)
    assert a.get_stability_frontier("all") == last
    assert a.dataplane.buffer.buffered_bytes() == 0
