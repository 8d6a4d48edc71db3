"""Multi-Paxos tests: liveness, safety, ordering, fail-over, windowing."""

import pytest

from repro.errors import PaxosError
from repro.net import NetemSpec, Topology
from repro.paxos import PaxosCluster, PaxosConfig
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload

NODES = ["n1", "n2", "n3", "n4", "n5"]


def build(latency_ms=10.0, rate_mbit=100.0, n=5, **kwargs):
    topo = Topology()
    for name in NODES[:n]:
        topo.add_node(name, group="g")
    topo.set_default(NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit))
    sim = Simulator()
    net = topo.build(sim)
    cluster = PaxosCluster(net, leader="n1", **kwargs)
    return sim, net, cluster


def test_config_validation():
    with pytest.raises(PaxosError):
        PaxosConfig(["a"], leader="b")
    with pytest.raises(PaxosError):
        PaxosConfig(["a", "a"], leader="a")
    with pytest.raises(PaxosError):
        PaxosConfig(["a", "b"], leader="a", window=0)
    assert PaxosConfig(["a", "b", "c"], leader="a").quorum_size == 2
    assert PaxosConfig(["a", "b", "c", "d"], leader="a").quorum_size == 3


def test_single_command_commits():
    sim, net, cluster = build()
    event = cluster.submit(b"command-1")
    result = sim.run_until_triggered(event, limit=2.0)
    assert result["instance"] == 1
    # Commit needs one RTT to the quorum (20 ms) plus Phase 1 before it.
    assert result["committed_at"] - result["submitted_at"] < 0.1


def test_commit_latency_is_quorum_rtt():
    sim, net, cluster = build(latency_ms=25.0)
    # Let Phase 1 finish first so we measure steady-state Phase 2.
    warmup = cluster.submit(b"warmup")
    sim.run_until_triggered(warmup, limit=2.0)
    event = cluster.submit(b"steady")
    result = sim.run_until_triggered(event, limit=2.0)
    latency = result["committed_at"] - result["submitted_at"]
    assert latency == pytest.approx(0.05, rel=0.1)  # one RTT


def test_commands_apply_in_instance_order_everywhere():
    sim, net, cluster = build()
    applied = {name: [] for name in NODES}
    for name in NODES:
        cluster[name].on_apply = (
            lambda inst, payload, meta, _n=name: applied[_n].append((inst, payload))
        )
    events = [cluster.submit(f"cmd{i}".encode()) for i in range(10)]
    for event in events:
        sim.run_until_triggered(event, limit=5.0)
    sim.run(until=sim.now + 1.0)
    expected = [(i + 1, f"cmd{i}".encode()) for i in range(10)]
    for name in NODES:
        assert applied[name] == expected


def test_only_leader_accepts_submissions():
    sim, net, cluster = build()
    with pytest.raises(PaxosError, match="not the leader"):
        cluster["n2"].submit(b"nope")


def test_commits_survive_minority_crash():
    sim, net, cluster = build()
    warmup = cluster.submit(b"w")
    sim.run_until_triggered(warmup, limit=2.0)
    net.crash_node("n4")
    net.crash_node("n5")
    event = cluster.submit(b"with minority down")
    result = sim.run_until_triggered(event, limit=2.0)
    assert result["instance"] == 2


def test_no_commit_without_quorum():
    sim, net, cluster = build()
    warmup = cluster.submit(b"w")
    sim.run_until_triggered(warmup, limit=2.0)
    for name in ("n3", "n4", "n5"):
        net.crash_node(name)
    event = cluster.submit(b"stuck")
    sim.run(until=5.0)
    assert not event.triggered


def test_leader_failover_preserves_chosen_values():
    """A value chosen under the old leader must survive fail-over."""
    sim, net, cluster = build()
    applied = {name: [] for name in NODES}
    for name in NODES:
        cluster[name].on_apply = (
            lambda inst, payload, meta, _n=name: applied[_n].append((inst, payload))
        )
    event = cluster.submit(b"old-leader-value")
    sim.run_until_triggered(event, limit=2.0)
    net.crash_node("n1")
    sim.call_later(0.1, cluster["n2"].become_leader)
    sim.run(until=1.0)
    assert cluster["n2"].is_leader()
    event2 = cluster["n2"].submit(b"new-leader-value")
    result = sim.run_until_triggered(event2, limit=3.0)
    sim.run(until=sim.now + 1.0)
    # The new leader re-proposed nothing conflicting: instance 1 keeps the
    # old value at every live node, the new command gets a later instance.
    assert result["instance"] > 1
    for name in ("n2", "n3", "n4", "n5"):
        assert applied[name][0] == (1, b"old-leader-value")
        assert (result["instance"], b"new-leader-value") in applied[name]


def test_uncommitted_value_recovered_by_new_leader():
    """If the old leader crashed after a quorum accepted but before commit
    spread, the new leader must re-propose the same value (P2 safety)."""
    sim, net, cluster = build()
    applied = []
    cluster["n3"].on_apply = lambda inst, payload, meta: applied.append(
        (inst, payload)
    )
    warmup = cluster.submit(b"w")
    sim.run_until_triggered(warmup, limit=2.0)
    cluster.submit(b"maybe-chosen")
    # Give Accepts time to reach acceptors, then kill the leader before
    # it can broadcast commits widely.
    sim.run(until=sim.now + 0.011)
    net.crash_node("n1")
    cluster["n2"].become_leader()
    sim.run(until=sim.now + 2.0)
    confirm = cluster["n2"].submit(b"confirm")
    sim.run_until_triggered(confirm, limit=3.0)
    sim.run(until=sim.now + 1.0)
    # n3 must have applied instance 2 with the recovered value: it was
    # accepted by a quorum under the old ballot, so the new leader is
    # obliged to re-propose it, never to skip or replace it.
    values = dict(applied)
    assert values[2] == b"maybe-chosen"
    assert [inst for inst, _payload in applied][:2] == [1, 2]  # in order


def test_window_limits_inflight_instances():
    sim, net, cluster = build(window=4)
    warmup = cluster.submit(b"w")
    sim.run_until_triggered(warmup, limit=2.0)
    leader = cluster["n1"]
    events = [leader.submit(SyntheticPayload(100)) for _ in range(20)]
    assert leader.inflight() <= 4
    assert leader.queued() >= 16
    for event in events:
        sim.run_until_triggered(event, limit=10.0)
    assert leader.inflight() == 0
    assert leader.queued() == 0


def test_throughput_bounded_by_slowest_quorum_member():
    """With one slow link, commit throughput tracks the quorum's slowest
    needed member, not the fastest nodes — Paxos's topology indifference."""
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_node(name, group="g")
    fast = NetemSpec(latency_ms=1, rate_mbit=1000)
    slow = NetemSpec(latency_ms=30, rate_mbit=8)
    topo.set_link_symmetric("a", "b", fast)
    topo.set_link_symmetric("a", "c", slow)
    topo.set_link_symmetric("b", "c", slow)
    sim = Simulator()
    net = topo.build(sim)
    cluster = PaxosCluster(net, leader="a")
    warmup = cluster.submit(b"w")
    sim.run_until_triggered(warmup, limit=2.0)
    event = cluster.submit(SyntheticPayload(100))
    result = sim.run_until_triggered(event, limit=2.0)
    latency = result["committed_at"] - result["submitted_at"]
    # Quorum of 2 = leader + b (fast): ~2 ms, NOT 60 ms.
    assert latency < 0.01
