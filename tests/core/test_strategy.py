"""Unit tests for the pluggable stabilization engines (docs/strategies.md).

The equivalence suite (test_strategy_equivalence.py) holds the default
ACK-table engine to the pre-refactor golden traces, and the chaos sweep
(test_strategy_chaos.py) exercises every engine under failures; this
file covers the seams in between — the factory and config validation,
end-to-end stabilization on the non-default engines, cross-engine
snapshot refusal, the engine of a sharded node, and the namespaced stats
contract.
"""

import pytest

from repro.core import (
    AckTableStrategy,
    SequencerStrategy,
    StabilizerCluster,
    StabilizerConfig,
    build_sharded_cluster,
    restore_state,
    snapshot_state,
)
from repro.core.stabilizer import Stabilizer
from repro.core.strategy import STRATEGY_NAMES, build_strategy
from repro.errors import ConfigError, StabilizerError
from repro.net import NetemSpec, Topology
from repro.obs import Tracer
from repro.sim import Simulator

NODES = ["a", "b", "c"]
GROUPS = {n: [n] for n in NODES}
STRICT = "MIN($ALLWNODES - $MYWNODE)"


def config_for(strategy, nodes=NODES, **kwargs):
    return StabilizerConfig(
        nodes,
        GROUPS,
        "a",
        predicates={"all": STRICT},
        control_interval_s=0.001,
        stabilization_strategy=strategy,
        **kwargs,
    )


def build(strategy, tracer=None, nodes=NODES, **config_kwargs):
    topo = Topology()
    for i, name in enumerate(nodes):
        topo.add_node(name, f"az{i}")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    cluster = StabilizerCluster(
        net, config_for(strategy, nodes, **config_kwargs), tracer=tracer
    )
    return sim, net, cluster


# ---------------------------------------------------------------------------
# The factory and config validation
# ---------------------------------------------------------------------------


def test_factory_builds_the_configured_engine():
    expected = {
        "acktable": AckTableStrategy,
        "sequencer": SequencerStrategy,
    }
    assert set(expected) == set(STRATEGY_NAMES)
    for name, cls in expected.items():
        strategy = build_strategy(config_for(name))
        assert isinstance(strategy, cls)
        assert strategy.name == name


@pytest.mark.parametrize("name", ("vector_clock", "hybrid_clock"))
def test_unknown_strategy_name_is_rejected(name):
    # "hybrid_clock" is a retired engine: a config naming it is refused
    # like any other unknown name, with the engines that remain.
    with pytest.raises(
        ConfigError,
        match=f"unknown stabilization strategy '{name}'; known: acktable, sequencer$",
    ):
        config_for(name)


# ---------------------------------------------------------------------------
# End-to-end stabilization on the non-default engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ("sequencer",))
def test_engine_stabilizes_a_healthy_cluster(strategy):
    sim, net, cluster = build(strategy)
    a = cluster["a"]
    seq = a.send(b"hello from %s" % strategy.encode())
    event = a.waitfor(seq, "all", timeout_s=5.0)
    sim.run_until_triggered(event, limit=5.0)
    assert event.ok
    assert a.get_stability_frontier("all") == seq
    cluster.close()


def test_non_default_sequencer_node_serves_the_cluster():
    # The sequencer is the first node in deployment order: listing b
    # first funnels a's stream through a node that does not send.
    sim, net, cluster = build("sequencer", nodes=["b", "a", "c"])
    for name in NODES:
        strat = cluster[name].strategy
        assert strat.sequencer == "b"
        assert strat.is_sequencer == (name == "b")
    a = cluster["a"]
    seq = a.send(b"through b")
    event = a.waitfor(seq, "all", timeout_s=5.0)
    sim.run_until_triggered(event, limit=5.0)
    assert event.ok
    # Only the sequencer broadcasts stable frames; reporters never do.
    assert cluster["b"].strategy.stable_broadcasts > 0
    assert cluster["a"].strategy.stable_broadcasts == 0
    cluster.close()


# ---------------------------------------------------------------------------
# What every engine inherits: the one grant path, the one carrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_delivery_yields_an_ack_local_event_at_the_receiver(strategy):
    tracer = Tracer()
    sim, net, cluster = build(strategy, tracer=tracer)
    a = cluster["a"]
    seq = a.send(b"acked where it lands")
    sim.run_until_triggered(a.waitfor(seq, "all", timeout_s=5.0), limit=5.0)
    acks = {
        event.node: event.fields
        for event in tracer.events()
        if event.etype == "ack.local"
    }
    # The span builder's cause for "b acknowledged a's send" — emitted by
    # the shared grant path, so by every engine.
    for receiver in ("b", "c"):
        assert acks[receiver] == {"origin": "a", "type": "received", "seq": seq}
    cluster.close()


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_bare_heartbeat_emits_no_control_receive(strategy):
    tracer = Tracer()
    sim, net, cluster = build(strategy, tracer=tracer)
    sim.run(until=4.0)  # idle: two heartbeat rounds, nothing to report
    assert all(node.controlplane.frames_received >= 4 for node in cluster)
    # The carrier swallows an empty report after on_heard; no engine sees
    # it, so none traces it as a zero-cell report.
    assert not [e for e in tracer.events() if e.etype == "control.receive"]
    cluster.close()


# ---------------------------------------------------------------------------
# Snapshots are engine-stamped
# ---------------------------------------------------------------------------


def test_cross_engine_restore_is_refused():
    sim, net, cluster = build("acktable")
    a = cluster["a"]
    seq = a.send(b"state")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=5.0)
    snap = snapshot_state(a)
    assert snap["strategy"]["name"] == "acktable"

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    mismatched = Stabilizer(net2, a.config.replace(
        stabilization_strategy="sequencer"
    ))
    with pytest.raises(StabilizerError, match="cannot restore"):
        restore_state(mismatched, snap)
    cluster.close()


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_same_engine_snapshot_roundtrips(strategy):
    sim, net, cluster = build(strategy)
    a = cluster["a"]
    seq = a.send(b"round trip")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=5.0)
    snap = snapshot_state(a)
    assert snap["strategy"]["name"] == strategy

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    cluster2 = StabilizerCluster(net2, a.config)
    restarted = cluster2["a"]
    restore_state(restarted, snap)
    assert restarted.get_stability_frontier("all") == seq
    cluster2.close()
    cluster.close()


# ---------------------------------------------------------------------------
# Per-shard overrides
# ---------------------------------------------------------------------------


def test_every_shard_runs_the_deployment_engine():
    topo = Topology()
    for i, name in enumerate(NODES):
        topo.add_node(name, f"az{i}")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    cluster = build_sharded_cluster(
        net,
        {"all": STRICT},
        shard_count=2,
        control_interval_s=0.005,
        shard_replication=2,
        stabilization_strategy="sequencer",
    )
    for name in NODES:
        for shard, inner in cluster[name].shards.items():
            assert inner.strategy.name == "sequencer"
            # Each shard funnels through its own first owner.
            owners = cluster.shard_map.owners(shard)
            assert inner.strategy.sequencer == owners[0]
    cluster.close()


# ---------------------------------------------------------------------------
# The stats contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_stats_are_namespaced_per_engine(strategy):
    sim, net, cluster = build(strategy)
    a = cluster["a"]
    seq = a.send(b"counted")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=5.0)
    stats = a.stats()
    # The origin always *hears* control traffic (its peers' reports or
    # stable broadcasts — whatever the engine speaks).
    assert stats["strategy.frames_received"] > 0
    # Engine-private counters live under the engine's own prefix, so a
    # dashboard can tell which protocol produced them.
    prefix = f"strategy.{strategy}."
    assert any(key.startswith(prefix) for key in stats)
    for other in STRATEGY_NAMES:
        if other != strategy:
            assert not any(
                key.startswith(f"strategy.{other}.") for key in stats
            )
    # The pre-redesign unprefixed aliases had their one release.
    assert not any(key.startswith("control_") for key in stats)
    cluster.close()
