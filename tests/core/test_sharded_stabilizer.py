"""ShardedStabilizer integration: routing, owner-set fan-out, per-shard
state, snapshot v4/v5, and partial-replication degradation scoping."""

import json

import pytest

from repro.core import (
    ShardedCluster,
    ShardedStabilizer,
    StabilizerConfig,
    build_sharded_cluster,
    restore_state,
    snapshot_state,
)
from repro.core.stabilizer import Stabilizer
from repro.errors import ConfigError, StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.testing import SyntheticPayload

PREDICATES = {
    "all": "MIN($SHARDWNODES - $MYWNODE)",
    "one": "MAX($SHARDWNODES - $MYWNODE)",
}


def build(nodes=4, shard_count=8, replication=2, predicates=None, **kwargs):
    topo = Topology()
    for i in range(nodes):
        topo.add_node(f"n{i}", f"az{i % 2}")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    cluster = build_sharded_cluster(
        net,
        dict(predicates if predicates is not None else PREDICATES),
        shard_count=shard_count,
        shard_replication=replication,
        control_interval_s=0.001,
        **kwargs,
    )
    return sim, cluster


def owned_shard(node):
    return node.owned_shards[0]


# ---------------------------------------------------------------------------
# Routing and fan-out.
# ---------------------------------------------------------------------------


def test_send_routes_only_to_the_owner_set():
    sim, cluster = build()
    deliveries = {name: [] for name in cluster.nodes}
    for name, node in cluster.nodes.items():
        for shard, inner in node.stacks().items():
            inner.on_delivery(
                lambda origin, seq, payload, meta, _n=name, _s=shard: deliveries[
                    _n
                ].append((origin, seq, _s))
            )
    sender = cluster["n0"]
    shard = owned_shard(sender)
    owners = set(cluster.shard_map.owners(shard))
    seq = sender.send(SyntheticPayload(256), shard=shard)
    event = sender.waitfor(seq, "all", shard=shard, timeout_s=10.0)
    sim.run_until_triggered(event)
    assert event.ok
    for name in cluster.nodes:
        if name in owners and name != "n0":
            assert deliveries[name] == [("n0", seq, shard)]
        else:
            # Non-owners never replicate the shard: owner-set fan-out,
            # not all-nodes broadcast.
            assert deliveries[name] == []
    cluster.close()


def test_unowned_shard_operations_raise_with_routing_hint():
    _sim, cluster = build()
    node = cluster["n0"]
    unowned = next(
        shard for shard in range(8) if shard not in node.owned_shards
    )
    owners = cluster.shard_map.owners(unowned)
    with pytest.raises(StabilizerError, match="does not own shard") as exc:
        node.send(SyntheticPayload(64), shard=unowned)
    for owner in owners:
        assert owner in str(exc.value)
    assert repr(cluster.shard_map.primary(unowned)) in str(exc.value)
    cluster.close()


def test_key_routing_matches_the_shard_map():
    sim, cluster = build()
    node = cluster["n0"]
    key = next(k for k in range(1000) if node.owns(node.shard_of(k)))
    shard = node.shard_of(key)
    seq = node.send(SyntheticPayload(64), key=key)
    sim.run(until=1.0)
    assert node.get_stability_frontier("one", key=key) >= 0
    assert node.stack(shard=shard).last_sent_seq() == seq
    assert node.owner_for_key(key) == cluster.shard_map.primary(shard)
    cluster.close()


def test_sequence_spaces_are_per_shard():
    _sim, cluster = build()
    node = cluster["n0"]
    first, second = node.owned_shards[:2]
    assert node.send(SyntheticPayload(64), shard=first) == 1
    assert node.send(SyntheticPayload(64), shard=first) == 2
    assert node.send(SyntheticPayload(64), shard=second) == 1
    cluster.close()


# ---------------------------------------------------------------------------
# Per-shard state and stats.
# ---------------------------------------------------------------------------


def test_state_is_allocated_only_for_owned_shards():
    _sim, cluster = build(nodes=4, shard_count=8, replication=2)
    for node in cluster:
        assert set(node.shards) == set(node.owned_shards)
        # Each shard stack knows only the owner set, not the cluster.
        for shard, inner in node.shards.items():
            assert tuple(inner.config.node_names) == cluster.shard_map.owners(
                shard
            )
        types = len(node.shards[owned_shard(node)].config.type_names())
        expected = sum(
            len(cluster.shard_map.owners(shard)) ** 2 * types
            for shard in node.owned_shards
        )
        assert node.ack_table_cells() == expected
    cluster.close()


def test_stats_aggregate_and_keep_frontier_lag_per_shard():
    sim, cluster = build()
    node = cluster["n0"]
    shard = owned_shard(node)
    seq = node.send(SyntheticPayload(256), shard=shard)
    sim.run_until_triggered(node.waitfor(seq, "all", shard=shard, timeout_s=10.0))
    stats = node.stats()
    assert stats["shards_owned"] == len(node.owned_shards)
    assert stats["shard_count"] == 8
    assert stats["ack_table_cells"] == node.ack_table_cells()
    # The acking co-owners carried the control traffic; the counter is
    # wired through on every node.
    assert sum(n.stats()["strategy.bytes_sent"] for n in cluster) > 0
    lag_keys = [k for k in stats if k.startswith("frontier_lag.")]
    assert lag_keys
    assert all(k.startswith("frontier_lag.s") for k in lag_keys)
    assert any(k.startswith(f"frontier_lag.s{shard}.") for k in lag_keys)
    cluster.close()


def test_stats_merge_each_metric_by_its_declared_rule():
    """A high-water mark is not eight high-water marks added, and a
    position in one shard's sequence space is not added to another's."""
    sim, cluster = build(nodes=4, shard_count=8, replication=3)
    node = cluster["n0"]
    owned = node.owned_shards
    for i in range(400):
        sim.call_later(
            i * 0.0005,
            lambda i=i: node.send(SyntheticPayload(256), shard=owned[i % len(owned)]),
        )
    sim.run(until=3.0)
    stats = node.stats()
    per_stack = {shard: node.shard_stats(shard) for shard in node.shards}
    assert len(per_stack) > 1
    assert stats["messages_sent"] == 400  # counters still add
    assert stats["dataplane.max_frame_messages"] == max(
        s["dataplane.max_frame_messages"] for s in per_stack.values()
    )
    assert stats["dataplane.max_frame_messages"] == 1
    assert "dataplane.delivery_watermark" not in stats
    for shard, inner in per_stack.items():
        assert (
            stats[f"dataplane.s{shard}.delivery_watermark"]
            == inner["dataplane.delivery_watermark"]
            > 0
        )
    cluster.close()


def test_suspected_nodes_counts_a_peer_once_however_many_stacks_share_it():
    sim, cluster = build(nodes=4, shard_count=8, replication=3)
    node = cluster["n0"]
    cluster["n1"].crash()
    cluster.net.crash_node("n1")
    sim.run(until=30.0)
    sharing = [s for s, inner in node.shards.items() if inner.suspected_nodes()]
    assert len(sharing) > 1
    assert all(node.shards[s].suspected_nodes() == {"n1"} for s in sharing)
    assert node.stats()["suspected_nodes"] == 1
    cluster.close()


def test_sla_controller_level_and_signals_take_the_worst_stack():
    from repro.core.slacontrol import SlaController

    sim, cluster = build(nodes=4, shard_count=4, replication=3)
    node = cluster["n0"]
    controllers = [
        SlaController(inner, "all", target_p99_s=0.001)
        for inner in node.stacks().values()
    ]
    assert len(controllers) > 1
    owned = node.owned_shards
    for i in range(1000):
        sim.call_later(
            i * 0.001,
            lambda i=i: node.send(SyntheticPayload(256), shard=owned[i % len(owned)]),
        )
    sim.run(until=0.9)
    stats = node.stats()
    per_stack = [node.shard_stats(shard) for shard in node.shards]
    assert {s["slacontrol.level"] for s in per_stack} == {1}
    assert stats["slacontrol.level"] == 1
    assert stats["slacontrol.window_p99_s"] == max(
        s["slacontrol.window_p99_s"] for s in per_stack
    )
    assert 0 < stats["slacontrol.window_p99_s"] < 0.1
    assert stats["slacontrol.ticks"] == sum(s["slacontrol.ticks"] for s in per_stack)
    for controller in controllers:
        controller.close()
    cluster.close()


# ---------------------------------------------------------------------------
# Sharded snapshot round-trip (v5 envelope).
# ---------------------------------------------------------------------------


def test_sharded_snapshot_round_trips_through_restart():
    sim, cluster = build()
    node = cluster["n1"]
    sent = {}
    for shard in node.owned_shards:
        seq = node.send(SyntheticPayload(200), shard=shard)
        sent[shard] = seq
        sim.run_until_triggered(
            node.waitfor(seq, "all", shard=shard, timeout_s=10.0)
        )
    snapshot = json.loads(json.dumps(snapshot_state(node)))  # wire-safe
    assert snapshot["version"] == 5
    assert set(map(int, snapshot["shards"])) == set(node.owned_shards)
    assert snapshot["shard_map"] == cluster.shard_map.to_dict()

    restarted = cluster.restart_node("n1", snapshot)
    assert restarted is cluster["n1"]
    for shard, seq in sent.items():
        assert (
            restarted.get_stability_frontier("all", "n1", shard=shard) == seq
        )
        # The stream resumes after the snapshot, never reusing a number.
        assert restarted.send(SyntheticPayload(64), shard=shard) == seq + 1
    cluster.close()


def test_sharded_snapshot_refuses_wrong_target_or_layout():
    _sim, cluster = build()
    snapshot = snapshot_state(cluster["n0"])

    topo = Topology()
    topo.add_node("n0", "az0")
    topo.add_node("n1", "az1")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=100))
    other_sim = Simulator()
    other_net = topo.build(other_sim)
    plain = Stabilizer(
        other_net,
        StabilizerConfig.from_topology(topo, "n0", predicates={"p": "MAX($ALLWNODES)"}),
    )
    with pytest.raises(StabilizerError, match="ShardedStabilizer"):
        restore_state(plain, snapshot)
    plain.close()

    other = ShardedStabilizer(
        other_net,
        StabilizerConfig.from_topology(
            topo,
            "n0",
            predicates={"p": "MAX($SHARDWNODES)"},
            shard_count=2,
            shard_replication=1,
        ),
    )
    with pytest.raises(StabilizerError, match="different deployment"):
        restore_state(other, snapshot)
    other.close()
    cluster.close()


# ---------------------------------------------------------------------------
# Degradation under partial replication (out-of-scope peers).
# ---------------------------------------------------------------------------


def test_masking_an_out_of_scope_peer_is_a_no_op():
    # replication=3: masking one remote owner must still leave a
    # non-empty set, so the rewrite actually applies.
    _sim, cluster = build(replication=3)
    node = cluster["n0"]
    shard = next(
        s
        for s in node.owned_shards
        if len(cluster.shard_map.owners(s)) < len(cluster.nodes)
    )
    inner = node.shards[shard]
    outsider = next(
        name
        for name in cluster.nodes
        if name not in inner.config.node_names
    )
    policy = inner.set_degradation_policy()
    policy.on_suspect(inner, outsider)
    assert policy.excluded_nodes() == set()
    assert policy.adjustments == 0
    policy.on_recover(inner, outsider)  # also a no-op, not an error

    co_owner = next(
        name for name in inner.config.node_names if name != node.name
    )
    policy.on_suspect(inner, co_owner)
    assert policy.excluded_nodes() == {co_owner}
    assert policy.adjustments > 0
    assert f"$WNODE_{co_owner}" in inner.engine.predicate("all").source
    policy.on_recover(inner, co_owner)
    assert inner.engine.predicate("all").source == PREDICATES["all"]
    cluster.close()


# ---------------------------------------------------------------------------
# Shard-view config guards.
# ---------------------------------------------------------------------------


def test_shard_view_rejects_non_owners():
    _sim, cluster = build()
    config = cluster["n0"].config
    unowned = next(
        shard
        for shard in range(8)
        if "n0" not in cluster.shard_map.owners(shard)
    )
    with pytest.raises(ConfigError, match="does not own"):
        config.shard_view(unowned)


def test_degenerate_single_shard_cluster_matches_unsharded_shape():
    _sim, cluster = build(
        nodes=3,
        shard_count=1,
        replication=None,
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
    )
    for node in cluster:
        assert node.owned_shards == (0,)
        inner = node.shards[0]
        assert list(inner.config.node_names) == [f"n{i}" for i in range(3)]
    cluster.close()
