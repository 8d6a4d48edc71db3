"""Live rebalancing: planner minimality, snapshot remapping, handoff
transfer/persistence, the coordinator's join / leave / failover flows,
epoch fencing, and crash-resume on either side of an in-flight handoff.

The end-to-end tests run a real cluster over a simulated 2-AZ network:
membership changes execute against live traffic, and the assertions pin
the protocol contract — minimal moves, single-instant cutover, restored
replication, per-shard epoch agreement after restarts.
"""

import pytest

from repro.core import (
    ShardedCluster,
    StabilizerConfig,
    snapshot_state,
)
from repro.core.dataplane import DATA_CHANNEL
from repro.core.membership import RebalancePlanner, ShardMap
from repro.core.rebalance import (
    HANDOFF_CHANNEL,
    HandoffManager,
    RebalanceCoordinator,
    remap_inner_snapshot,
)
from repro.core.stabilizer import Stabilizer
from repro.errors import ConfigError, StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.testing import SyntheticPayload

PREDICATES = {
    "all": "MIN($SHARDWNODES - $MYWNODE)",
    "any": "MAX($SHARDWNODES - $MYWNODE)",
}

GROUPS = {"az0": ["n00", "n01"], "az1": ["n10", "n11"]}


def build(
    groups=None,
    spares=("s0",),
    shard_count=8,
    replication=2,
    predicates=None,
    **kwargs,
):
    """A live sharded cluster plus provisioned (non-member) spare hosts
    and a rebalance coordinator with test-friendly timeouts."""
    groups = {az: list(ms) for az, ms in (groups or GROUPS).items()}
    members = [n for ms in groups.values() for n in ms]
    topo = Topology()
    for az, ms in groups.items():
        for name in ms:
            topo.add_node(name, group=az)
    for i, name in enumerate(spares):
        topo.add_node(name, group=f"az{i % len(groups)}")
    topo.set_default(NetemSpec(latency_ms=2, rate_mbit=200))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        node_names=members,
        groups=groups,
        local=members[0],
        predicates=dict(predicates if predicates is not None else PREDICATES),
        shard_count=shard_count,
        shard_replication=replication,
        control_interval_s=0.005,
        failure_timeout_s=1.0,
        durability=False,
        **kwargs,
    )
    cluster = ShardedCluster(net, config)
    coordinator = RebalanceCoordinator(
        cluster, drain_timeout_s=1.0, transfer_timeout_s=1.0
    )
    return sim, net, cluster, coordinator


def settle(sim, coordinator, max_slices=60, slice_s=0.5):
    """Run until the coordinator has no active or queued rebalance."""
    for _ in range(max_slices):
        if coordinator.idle:
            return
        sim.run(until=sim.now + slice_s)
    assert coordinator.idle, f"rebalance stuck in phase {coordinator.phase!r}"


def pump(sim, cluster, per_shard=3, gap_s=0.05):
    """Send ``per_shard`` messages on every live owned stack; returns
    the last sequence per (origin, shard)."""
    sent = {}
    for node in cluster:
        for shard in list(node.shards):
            if shard in node.frozen_shards():
                continue
            for _ in range(per_shard):
                sent[(node.name, shard)] = node.send(
                    SyntheticPayload(128), shard=shard
                )
    sim.run(until=sim.now + gap_s)
    return sent


def teardown(coordinator, cluster):
    coordinator.close()
    cluster.close()


# ---------------------------------------------------------------------------
# Planner minimality.
# ---------------------------------------------------------------------------


def test_plan_join_only_moves_shards_the_joiner_wins():
    old = ShardMap([f"n{i}" for i in range(6)], shard_count=32, replication=2)
    new = ShardMap(
        [f"n{i}" for i in range(7)], shard_count=32, replication=2, epoch=1
    )
    plan = RebalancePlanner(old).plan(new)
    assert plan.moves
    assert plan.new_epoch == old.epoch + 1
    for move in plan.moves:
        # Every move is caused by the joiner winning the shard; the
        # surviving old owner stays (rendezvous stability).
        assert move.joiners == ("n6",)
        assert set(move.stayers) == set(move.old) & set(move.new)
    moved = set(plan.moved_shards())
    for shard in range(32):
        if shard not in moved:
            assert old.owners(shard) == plan.new_map.owners(shard)


def test_plan_leave_only_disturbs_the_leavers_shards():
    old = ShardMap([f"n{i}" for i in range(6)], shard_count=32, replication=2)
    new = ShardMap(
        [f"n{i}" for i in range(6) if i != 2], shard_count=32, replication=2, epoch=1
    )
    plan = RebalancePlanner(old).plan(new)
    assert set(plan.moved_shards()) == set(old.owned_shards("n2"))
    for move in plan.moves:
        assert move.leavers == ("n2",)
        # The co-owner survives in place; exactly one successor joins.
        assert len(move.joiners) == 1
        assert set(move.old) - {"n2"} <= set(move.new)


def test_plan_guards():
    old = ShardMap(["a", "b"], shard_count=4, replication=2)
    planner = RebalancePlanner(old)
    assert not planner.plan(old).moves
    with pytest.raises(ConfigError, match="shard_count cannot change"):
        planner.plan(ShardMap(["a", "b"], shard_count=8, replication=2))


# ---------------------------------------------------------------------------
# Snapshot remapping (stayer vs joiner).
# ---------------------------------------------------------------------------


def _owner_config(names, owners, local, epoch):
    return StabilizerConfig(
        node_names=names,
        groups={"az0": list(names)},
        local=local,
        predicates=dict(PREDICATES),
        shard_count=len(owners),
        shard_owners=owners,
        shard_epoch=epoch,
        control_interval_s=0.005,
        durability=False,
    )


def _traffic_snapshot():
    """A real per-shard inner snapshot: a and b co-own shard 0, a sends
    4 messages, b has received them all.  Returns b's inner snapshot."""
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_node(name, group="az0")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=200))
    sim = Simulator()
    net = topo.build(sim)
    owners = {0: ["a", "b"], 1: ["b", "c"]}
    config = _owner_config(["a", "b", "c"], owners, "a", epoch=0)
    cluster = ShardedCluster(net, config)
    node_a = cluster["a"]
    for _ in range(4):
        seq = node_a.send(SyntheticPayload(64), shard=0)
    event = node_a.waitfor(seq, "all", shard=0, timeout_s=5.0)
    sim.run_until_triggered(event)
    assert event.ok
    snap = snapshot_state(cluster["b"].shards[0])
    cluster.close()
    return snap


def test_remap_stayer_keeps_stream_and_rows():
    snap = _traffic_snapshot()  # b's view of shard 0, owners (a, b)
    successor = _owner_config(
        ["a", "b", "c"], {0: ["b", "c"], 1: ["b", "c"]}, "b", epoch=1
    )
    view = successor.for_node("b").shard_view(0)  # a leaves, c joins
    remapped, adopt = remap_inner_snapshot(snap, view)
    assert adopt == {}  # stayers adopt nothing — their stream continues
    assert remapped["next_seq"] == snap["next_seq"]
    assert remapped["config"]["node_names"] == ["b", "c"]
    # a's origin stream dropped with its row; c's columns start at zero.
    assert set(remapped["tables"]) == {"b", "c"}
    c_index = 1
    for rows in remapped["tables"].values():
        assert all(cell == 0 for cell in rows[c_index])


def test_remap_joiner_zeroes_own_row_and_adopts_watermarks():
    snap = _traffic_snapshot()  # source b had received a:4
    successor = _owner_config(
        ["a", "b", "c"], {0: ["a", "c"], 1: ["b", "c"]}, "c", epoch=1
    )
    view = successor.for_node("c").shard_view(0)  # b leaves, c joins
    remapped, adopt = remap_inner_snapshot(snap, view)
    assert remapped["next_seq"] == 1  # the joiner's stream starts fresh
    assert remapped["buffer"]["entries"] == []
    # c has acknowledged nothing under its own name...
    c_index = view.node_names.index("c")
    for rows in remapped["tables"].values():
        assert all(cell == 0 for cell in rows[c_index])
    # ...but adopts the source's receive watermark for a's stream: the
    # transferred state already carries those deliveries' effects.
    assert adopt == {"a": 4}


def test_remap_keeps_only_the_views_stability_types():
    # A type one stack registered at run time widens its rows; the stack
    # a cutover builds holds the view's types only, so that column drops.
    snap = _traffic_snapshot()
    for rows in snap["tables"].values():
        for row in rows:
            row.append(7)  # as if a type had been registered at run time
    successor = _owner_config(
        ["a", "b", "c"], {0: ["b", "c"], 1: ["b", "c"]}, "b", epoch=1
    )
    view = successor.for_node("b").shard_view(0)
    remapped, _adopt = remap_inner_snapshot(snap, view)
    b_index = view.node_names.index("b")
    for origin, rows in remapped["tables"].items():
        assert all(len(row) == len(view.type_names()) for row in rows)
    # b's own row of the stream it kept, less the dropped column.
    assert remapped["tables"]["b"][b_index] == snap["tables"]["b"][1][:-1]


# ---------------------------------------------------------------------------
# HandoffManager: transfer, idempotent take, crash persistence.
# ---------------------------------------------------------------------------


def _handoff_pair():
    topo = Topology()
    topo.add_node("src", group="az0")
    topo.add_node("dst", group="az0")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=200))
    sim = Simulator()
    net = topo.build(sim)
    return sim, net, HandoffManager(net, "src"), HandoffManager(net, "dst")


def test_handoff_transfer_parks_until_taken():
    sim, _net, src, dst = _handoff_pair()
    blob = {"version": 3, "hello": [1, 2, 3]}
    size = src.send_shard("dst", shard=5, epoch=2, snapshot=blob)
    assert size > 0
    sim.run(until=sim.now + 1.0)
    assert dst.received(5, 2)
    assert not dst.received(5, 1)  # keyed by (shard, epoch)
    assert dst.take(5, 2)["snapshot"] == blob
    assert dst.take(5, 2) is None  # taken is gone
    src.close()
    dst.close()


def test_handoff_blobs_ride_the_crash_snapshot():
    sim, _net, src, dst = _handoff_pair()
    src.send_shard("dst", shard=1, epoch=3, snapshot={"x": 1})
    sim.run(until=sim.now + 1.0)
    parked = dst.incoming_state()
    assert parked == [
        {"shard": 1, "epoch": 3, "source": "src", "snapshot": {"x": 1}}
    ]
    dst.close()  # the crash
    restored = HandoffManager(src.net, "dst")
    restored.restore_incoming(parked)
    assert restored.take(1, 3)["snapshot"] == {"x": 1}
    src.close()
    restored.close()


def test_handoff_channel_death_suspects_nobody():
    # Satellite: the handoff endpoint lives outside every shard stack's
    # port, so a transfer stream exhausting its retries must not feed
    # any shard's failure detector.  replication=1 means no co-owned
    # shards at all — any suspicion could only come from the handoff.
    sim, net, cluster, coordinator = build(
        spares=(),
        replication=1,
        predicates={"self": "MIN($MYWNODE)"},
    )
    src = cluster["n00"]
    channel = src.handoff.endpoint.channel("n01", HANDOFF_CHANNEL)
    channel.max_retransmit_attempts, channel.max_rto = 3, 0.2
    net.crash_node("n01")
    src.handoff.send_shard("n01", shard=0, epoch=1, snapshot={"x": 1})
    sim.run(until=sim.now + 30.0)
    assert channel.suspended
    assert src.stats()["suspected_nodes"] == 0
    teardown(coordinator, cluster)


def test_dead_peer_reports_carry_the_shard():
    _sim, _net, cluster, coordinator = build(spares=())
    node = cluster["n00"]
    reports = []
    for inner in node.stacks().values():
        inner.on_peer_dead(lambda peer, shard: reports.append((peer, shard)))
    shard = node.owned_shards[0]
    # The shard stack's endpoint reports a data channel giving up.
    node.shards[shard].endpoint.on_peer_dead("n10", "stab.data")
    assert reports == [("n10", shard)]
    teardown(coordinator, cluster)


# ---------------------------------------------------------------------------
# Epoch fencing.
# ---------------------------------------------------------------------------


def test_epoch_mismatch_fences_frames():
    topo = Topology()
    topo.add_node("a", group="az0")
    topo.add_node("b", group="az0")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=200))
    sim = Simulator()
    net = topo.build(sim)

    def config_for(local, epoch):
        return StabilizerConfig(
            node_names=["a", "b"],
            groups={"az0": ["a", "b"]},
            local=local,
            predicates=dict(PREDICATES),
            shard_epoch=epoch,
            control_interval_s=0.005,
            durability=False,
        )

    a = Stabilizer(net, config_for("a", 0))
    b = Stabilizer(net, config_for("b", 1))
    a.send(SyntheticPayload(64))
    sim.run(until=sim.now + 1.0)
    # b's stack runs one epoch ahead: a's frames are counted and dropped,
    # never applied — its watermark for a stays at zero.
    assert b.dataplane.highest_received("a") == 0
    assert b.stats()["stale_epoch_frames"] > 0
    # b's transport acknowledged the frames it fenced, but its ACK names
    # its own epoch: a claims nothing received at b, and keeps its buffer.
    assert b.endpoint.channel("a", DATA_CHANNEL).acks_sent > 0
    received = a.type_id("received")
    assert a.tables["a"].get(a.config.node_index("b"), received) == 0
    assert a.delivery_watermark() == 0
    assert a.dataplane.buffer.reclaimed_up_to == 0
    assert len(a.dataplane.buffer) == 1
    a.close()
    b.close()


# ---------------------------------------------------------------------------
# Coordinator: join / leave / failover end to end.
# ---------------------------------------------------------------------------


def test_join_hands_off_and_serves_after_cutover():
    sim, _net, cluster, coordinator = build()
    pump(sim, cluster)
    old_map = cluster.shard_map
    coordinator.node_join("s0")
    settle(sim, coordinator)
    assert cluster.shard_map.epoch == old_map.epoch + 1
    assert "s0" in cluster.base_config.node_names
    joiner = cluster["s0"]
    assert joiner.pending_shards == set()
    assert set(joiner.shards) == set(cluster.shard_map.owned_shards("s0"))
    # Only the shards s0 won moved; everything else kept its owner set.
    [record] = coordinator.history
    assert record["kind"] == "join" and record["subject"] == "s0"
    assert record["shards_moved"] == len(set(joiner.shards))
    assert record["unsourced"] == 0
    # The joiner serves immediately: a strict waitfor on its shard
    # completes against the *new* owner set.
    shard = joiner.owned_shards[0]
    seq = joiner.send(SyntheticPayload(128), shard=shard)
    event = joiner.waitfor(seq, "all", shard=shard, timeout_s=10.0)
    sim.run_until_triggered(event)
    assert event.ok
    teardown(coordinator, cluster)


def test_leave_restores_replication_without_the_leaver():
    sim, _net, cluster, coordinator = build(spares=())
    pump(sim, cluster)
    coordinator.node_leave("n01")
    settle(sim, coordinator)
    assert "n01" not in cluster.nodes
    assert "n01" not in cluster.base_config.node_names
    shard_map = cluster.shard_map
    for shard in range(shard_map.shard_count):
        owners = shard_map.owners(shard)
        assert len(set(owners)) == 2  # replication restored
        for owner in owners:
            assert shard in cluster[owner].shards
    [record] = coordinator.history
    assert record["kind"] == "leave" and record["unsourced"] == 0
    teardown(coordinator, cluster)


def test_failover_rereplicates_a_dead_nodes_shards():
    sim, net, cluster, coordinator = build(spares=())
    pump(sim, cluster)
    lost = set(cluster.shard_map.owned_shards("n11"))
    cluster["n11"].crash()
    net.crash_node("n11")
    coordinator.node_crashed("n11")
    coordinator.declare_dead("n11")
    settle(sim, coordinator)
    assert "n11" not in cluster.base_config.node_names
    shard_map = cluster.shard_map
    for shard in lost:
        owners = shard_map.owners(shard)
        assert "n11" not in owners
        assert len(set(owners)) == 2
        for owner in owners:
            assert shard in cluster[owner].shards
    [record] = coordinator.history
    assert record["kind"] == "failover"
    # Re-replication sourced from surviving owners, not thin air.
    assert record["unsourced"] == 0
    assert coordinator.stats()["rebalance.handoff_bytes"] > 0
    teardown(coordinator, cluster)


def test_queued_changes_run_in_order():
    sim, _net, cluster, coordinator = build()
    coordinator.node_join("s0")
    coordinator.node_leave("n01")  # queued behind the join
    assert not coordinator.idle
    settle(sim, coordinator)
    assert [h["kind"] for h in coordinator.history] == ["join", "leave"]
    assert cluster.shard_map.epoch == 2
    assert "s0" in cluster.nodes and "n01" not in cluster.nodes
    teardown(coordinator, cluster)


# ---------------------------------------------------------------------------
# Crash-resume on either side of an in-flight handoff.
# ---------------------------------------------------------------------------


def test_joiner_crash_mid_handoff_resumes_from_snapshot():
    sim, net, cluster, coordinator = build()
    pump(sim, cluster)
    coordinator.node_join("s0")
    sim.run(until=sim.now + 0.08)  # freeze done, transfers at most in flight
    assert not coordinator.idle
    joiner = cluster["s0"]
    snapshot = snapshot_state(joiner)
    joiner.crash()
    net.crash_node("s0")
    coordinator.node_crashed("s0")
    sim.run(until=sim.now + 1.0)
    assert not coordinator.idle  # the cutover waits for the joiner
    net.recover_node("s0")
    # s0 is not in the pre-cutover deployment: the restart rebuilds it
    # from the config the v5 snapshot carries.
    assert "s0" not in cluster.base_config.node_names
    cluster.restart_node("s0", snapshot)
    coordinator.node_restarted("s0")
    settle(sim, coordinator)
    assert cluster.shard_map.epoch == 1
    assert set(cluster["s0"].shards) == set(
        cluster.shard_map.owned_shards("s0")
    )
    assert coordinator.history[0]["unsourced"] == 0
    teardown(coordinator, cluster)


def test_source_crash_mid_handoff_retries_against_survivors():
    sim, net, cluster, coordinator = build()
    pump(sim, cluster)
    coordinator.node_join("s0")
    sim.run(until=sim.now + 0.08)
    # Crash a member that sources at least one transfer; the coordinator
    # pauses, the cutover waits, and the restart re-drives.
    victim = next(
        move.old[0] for move in coordinator.active_plan.moves
    )
    snapshot = snapshot_state(cluster[victim])
    cluster[victim].crash()
    net.crash_node(victim)
    coordinator.node_crashed(victim)
    sim.run(until=sim.now + 1.0)
    assert not coordinator.idle
    net.recover_node(victim)
    cluster.restart_node(victim, snapshot)
    coordinator.node_restarted(victim)
    settle(sim, coordinator)
    assert cluster.shard_map.epoch == 1
    assert coordinator.history[0]["unsourced"] == 0
    teardown(coordinator, cluster)


def test_restart_resumes_each_shard_at_its_running_epoch():
    # Kept (unmoved) stacks run at the epoch of the map they were built
    # from, not the adopted config's: after one rebalance a member's
    # shards run at a *mix* of epochs, and a restart must resume each at
    # its own — fencing is per-shard equality, so one uniform stamp
    # would wedge every kept stream against the restarted node.
    sim, net, cluster, coordinator = build()
    coordinator.node_join("s0")
    settle(sim, coordinator)
    name = next(
        n for n in cluster.base_config.node_names
        if {cluster[n].shards[s].config.shard_epoch
            for s in cluster[n].shards} == {0, 1}
    )
    node = cluster[name]
    snapshot = snapshot_state(node)
    node.crash()
    net.crash_node(name)
    net.recover_node(name)
    restarted = cluster.restart_node(name, snapshot)
    for shard, inner in restarted.shards.items():
        peer = next(
            owner for owner in cluster.shard_map.owners(shard)
            if owner != name
        )
        assert (
            inner.config.shard_epoch
            == cluster[peer].shards[shard].config.shard_epoch
        )
    # And the resumed streams actually flow: a strict waitfor on an
    # *unmoved* (epoch-0) shard passes through the restarted node.
    shard = next(
        s for s, inner in restarted.shards.items()
        if inner.config.shard_epoch == 0
    )
    seq = restarted.send(SyntheticPayload(128), shard=shard)
    event = restarted.waitfor(seq, "all", shard=shard, timeout_s=10.0)
    sim.run_until_triggered(event)
    assert event.ok
    teardown(coordinator, cluster)


# ---------------------------------------------------------------------------
# Predicates across the epoch bump.
# ---------------------------------------------------------------------------


def test_predicates_recompile_against_the_new_owner_set():
    # Satellite: $SHARDWNODES re-expands at cutover.  After n01 leaves,
    # a strict (every-owner) waitfor on a shard it co-owned completes
    # without n01's acks — the predicate no longer mentions it.
    sim, _net, cluster, coordinator = build(spares=())
    shard = cluster.shard_map.owned_shards("n01")[0]
    coordinator.node_leave("n01")
    settle(sim, coordinator)
    owner = cluster.shard_map.primary(shard)
    inner = cluster[owner].shards[shard]
    assert "n01" not in inner.config.node_names
    seq = cluster[owner].send(SyntheticPayload(128), shard=shard)
    event = cluster[owner].waitfor(seq, "all", shard=shard, timeout_s=10.0)
    sim.run_until_triggered(event)
    assert event.ok
    teardown(coordinator, cluster)


def test_masking_a_departed_node_is_a_no_op_after_cutover():
    # MaskSuspectedPolicy scoping across the epoch bump — a node that
    # left the deployment is out of every owner set, so masking it
    # adjusts nothing on the rebuilt stacks.  (Replication 3 so masking
    # one live co-owner still leaves a non-empty owner set — the policy
    # refuses rewrites that would empty a predicate.)
    sim, _net, cluster, coordinator = build(spares=(), replication=3)
    shard = cluster.shard_map.owned_shards("n01")[0]
    coordinator.node_leave("n01")
    settle(sim, coordinator)
    owner = cluster.shard_map.primary(shard)
    inner = cluster[owner].shards[shard]
    policy = inner.set_degradation_policy()
    policy.on_suspect(inner, "n01")
    assert policy.excluded_nodes() == set()
    assert policy.adjustments == 0
    # A live co-owner still adjusts — the scope shrank, not the feature.
    co_owner = next(
        n for n in inner.config.node_names if n != owner
    )
    policy.on_suspect(inner, co_owner)
    assert policy.excluded_nodes() == {co_owner}
    assert policy.adjustments > 0
    teardown(coordinator, cluster)


# ---------------------------------------------------------------------------
# What a stack a cutover builds carries: the deployment's configuration,
# nothing registered on the stack it replaces (docs/sharding.md, "The node
# interface").
# ---------------------------------------------------------------------------

ONE = "MAX($SHARDWNODES)"
RELAXED_ALL = "MAX($SHARDWNODES - $MYWNODE)"
CHANGES = ["leave", "join"]


def change_membership(sim, cluster, coordinator, kind):
    """Run one membership change to completion; returns the
    ``(node, shard)`` stacks it built."""
    before = {
        (node.name, shard): inner
        for node in cluster
        for shard, inner in node.shards.items()
    }
    if kind == "leave":
        coordinator.node_leave("n01")
    else:
        coordinator.node_join("s0")
        assert cluster["s0"].shards == {}
    settle(sim, coordinator)
    built = {
        (node.name, shard)
        for node in cluster
        for shard, inner in node.shards.items()
        if before.get((node.name, shard)) is not inner
    }
    kept = {
        (node.name, shard) for node in cluster for shard in node.shards
    } - built
    assert built and kept  # the change moved some shards and spared others
    return built


def uneven_pump(sim, cluster):
    """Like ``pump``, but a stream's length depends on its shard, so a
    callback labelled with the wrong shard cannot pass by coincidence."""
    sent = {}
    for node in cluster:
        for shard in node.shards:
            for _ in range(1 + shard % 3):
                sent[(node.name, shard)] = node.send(
                    SyntheticPayload(128), shard=shard
                )
    sim.run(until=sim.now + 1.0)
    return sent


@pytest.mark.parametrize("kind", CHANGES)
def test_monitors_follow_every_stack_a_cutover_builds(kind):
    # As the rebalance chaos scenario does: a monitor on every stack, and
    # on each stack a cutover builds once it has cut over.
    sim, _net, cluster, coordinator = build()
    reported = {}  # (node, origin, shard) -> every frontier it was told

    def watch(node, shards):
        for shard in shards:
            node.shards[shard].monitor_stability_frontier(
                "all",
                lambda origin, frontier, _old, shard=shard, name=node.name: (
                    reported.setdefault((name, origin, shard), []).append(frontier)
                ),
            )

    for node in cluster:
        watch(node, node.shards)
    uneven_pump(sim, cluster)
    built = change_membership(sim, cluster, coordinator, kind)
    for node in cluster:
        watch(node, [shard for name, shard in built if name == node.name])
    sent = uneven_pump(sim, cluster)
    assert len(sent) == 16  # 8 shards x 2 owners, before and after
    heard = {
        (origin, shard)
        for (origin, shard), seq in sent.items()
        if all(
            reported.get((owner, origin, shard), [0])[-1] == seq
            for owner in cluster.shard_map.owners(shard)
        )
    }
    assert heard == set(sent)
    # Resuming above the old stack's high-water mark (a rebuilt shard) or
    # at the transferred frontier (a joined one): nothing is re-reported.
    for slot, frontiers in reported.items():
        assert frontiers == sorted(set(frontiers)), (slot, frontiers)
    assert any((name, shard) in built for name, _origin, shard in reported)
    teardown(coordinator, cluster)


def serve_on_a_built_stack(sim, cluster, built):
    """A stack a cutover built still serves a ``waitfor`` on ``all``."""
    name, shard = sorted(built)[0]
    seq = cluster[name].send(SyntheticPayload(128), shard=shard)
    event = cluster[name].waitfor(seq, "all", shard=shard, timeout_s=10.0)
    sim.run_until_triggered(event)
    assert event.ok


@pytest.mark.parametrize("kind", CHANGES)
def test_built_stacks_carry_only_the_config_time_predicates(kind):
    sim, _net, cluster, coordinator = build()
    config_keys = set(cluster["n00"].stack().engine.predicate_keys())
    for node in cluster:
        for inner in node.stacks().values():
            inner.change_predicate("all", RELAXED_ALL)  # a config-time key
            inner.register_predicate("one", ONE)
            inner.change_predicate("one")
    built = change_membership(sim, cluster, coordinator, kind)
    for node in cluster:
        for shard, inner in node.shards.items():
            keys = set(inner.engine.predicate_keys())
            if (node.name, shard) in built:
                # The deployment's predicates, as configured, and the
                # default key.
                assert keys == config_keys
                assert inner.engine.predicate("all").source == PREDICATES["all"]
                assert inner.active_predicate_key() == "all"
            else:
                # A kept stack keeps what was made on it.
                assert keys == config_keys | {"one"}
                assert inner.engine.predicate("all").source == RELAXED_ALL
                assert inner.active_predicate_key() == "one"
    serve_on_a_built_stack(sim, cluster, built)
    teardown(coordinator, cluster)


@pytest.mark.parametrize("kind", CHANGES)
def test_built_stacks_carry_only_the_config_time_types_and_no_policy(kind):
    sim, _net, cluster, coordinator = build()
    config_types = cluster["n00"].stack().config.type_names()
    assert "verified" not in config_types
    policies = {}
    for node in cluster:
        for shard, inner in node.stacks().items():
            inner.register_stability_type("verified")
            policies[(node.name, shard)] = inner.set_degradation_policy()
    uneven_pump(sim, cluster)  # rows carry the run-time column into the handoff
    built = change_membership(sim, cluster, coordinator, kind)
    for node in cluster:
        for shard, inner in node.shards.items():
            if (node.name, shard) in built:
                # The shard view's types alone, and no policy.
                assert [inner.type_id(t) for t in config_types] == list(
                    range(len(config_types))
                )
                with pytest.raises(StabilizerError, match="unknown stability"):
                    inner.type_id("verified")
                assert inner.degradation_policy is None
            else:
                # A kept stack keeps what was made on it.
                assert inner.type_id("verified") == len(config_types)
                assert inner.degradation_policy is policies[(node.name, shard)]
    serve_on_a_built_stack(sim, cluster, built)
    teardown(coordinator, cluster)


@pytest.mark.parametrize("kind", CHANGES)
def test_delivery_handlers_reach_kept_and_built_stacks_once(kind):
    # A kept stack keeps its handlers and a built one starts with none:
    # subscribing again on the built stacks doubles nothing.
    sim, _net, cluster, coordinator = build()
    calls = {"early": [], "late": []}

    def subscribe(node, shards, label):
        for shard in shards:
            node.shards[shard].on_delivery(
                lambda origin, seq, _payload, _meta, shard=shard, name=node.name: (
                    calls[label].append((name, origin, seq, shard))
                )
            )

    for node in cluster:
        subscribe(node, node.shards, "early")
    built = change_membership(sim, cluster, coordinator, kind)
    for node in cluster:
        subscribe(node, [s for name, s in built if name == node.name], "early")
        subscribe(node, node.shards, "late")
    del calls["early"][:]
    sent = uneven_pump(sim, cluster)
    expected = sorted(
        (owner, origin, seq, shard)
        for (origin, shard), last in sent.items()
        for seq in range(last - shard % 3, last + 1)
        for owner in cluster.shard_map.owners(shard)
        if owner != origin
    )
    assert sorted(calls["late"]) == expected
    assert sorted(calls["early"]) == expected  # once each: no doubling
    teardown(coordinator, cluster)
