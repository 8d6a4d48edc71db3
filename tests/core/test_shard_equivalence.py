"""Randomized equivalence: the degenerate sharded deployment == the
unsharded engine.

Sharding must be a pure *restriction* of the classic protocol: when every
node owns every shard, nothing about stability may change.  These tests
drive a sharded cluster and an unsharded cluster through the identical
seeded workload (same virtual send times, origins, sizes, keys) and hold
their stability frontiers equal at every settle checkpoint, seed for
seed:

- ``shard_count=1`` — structurally the same engine, compared frontier
  for frontier at every node;
- ``shard_count=4`` with all-owners replication — per-shard frontiers
  must equal the per-shard send counts, and their totals must equal the
  unsharded cluster's frontiers for the same stream.
"""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig, build_sharded_cluster
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.testing import SyntheticPayload

NODES = ["n0", "n1", "n2"]
PHASE_S = 6.0
SEND_WINDOW_S = 2.0

UNSHARDED = {
    "all": "MIN($ALLWNODES - $MYWNODE)",
    "one": "MAX($ALLWNODES - $MYWNODE)",
}
SHARDED = {
    "all": "MIN($SHARDWNODES - $MYWNODE)",
    "one": "MAX($SHARDWNODES - $MYWNODE)",
}


def _topology():
    topo = Topology()
    for i, name in enumerate(NODES):
        topo.add_node(name, f"az{i}")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    return topo


def _schedule(seed, phases=2, per_phase=30):
    """The seeded workload: (time, origin, payload size, key) tuples.
    Both clusters replay it verbatim."""
    rng = RngRegistry(seed).stream("shard-equivalence")
    sends = []
    for phase in range(phases):
        base = phase * PHASE_S
        for _ in range(per_phase):
            sends.append(
                (
                    base + rng.random() * SEND_WINDOW_S,
                    NODES[rng.randrange(len(NODES))],
                    rng.randint(64, 1024),
                    rng.randrange(1000),
                )
            )
    sends.sort()
    return sends


def _drive(cluster, sim, sends, sharded, phases=2):
    """Replay the schedule, settling and yielding at phase boundaries."""
    for t, origin, size, key in sends:
        node = cluster[origin]
        if sharded:
            sim.call_at(t, lambda n=node, s=size, k=key: n.send(
                SyntheticPayload(s), key=k
            ))
        else:
            sim.call_at(t, lambda n=node, s=size: n.send(SyntheticPayload(s)))
    for phase in range(phases):
        sim.run(until=(phase + 1) * PHASE_S)
        yield phase


@pytest.mark.parametrize("seed", [7, 21, 1234])
def test_single_shard_degenerate_matches_unsharded_frontiers(seed):
    sends = _schedule(seed)

    plain_sim = Simulator()
    plain_topo = _topology()
    plain = StabilizerCluster(
        plain_topo.build(plain_sim),
        StabilizerConfig.from_topology(
            plain_topo, NODES[0], predicates=dict(UNSHARDED),
            control_interval_s=0.001,
        ),
    )
    shard_sim = Simulator()
    sharded = build_sharded_cluster(
        _topology().build(shard_sim),
        dict(SHARDED),
        shard_count=1,
        control_interval_s=0.001,
    )

    plain_phases = _drive(plain, plain_sim, sends, sharded=False)
    shard_phases = _drive(sharded, shard_sim, sends, sharded=True)
    for _ in zip(plain_phases, shard_phases):
        for name in NODES:
            for origin in NODES:
                for key in ("all", "one"):
                    expected = plain[name].get_stability_frontier(key, origin)
                    actual = sharded[name].get_stability_frontier(
                        key, origin, shard=0
                    )
                    assert actual == expected, (
                        f"{name}: {key}/{origin} sharded={actual} "
                        f"unsharded={expected}"
                    )
    # The workload must actually have stabilized something.
    assert any(
        plain[name].get_stability_frontier("all", origin) > 0
        for name in NODES
        for origin in NODES
    )
    plain.close()
    sharded.close()


@pytest.mark.parametrize("seed", [3, 99])
def test_all_owners_multi_shard_totals_match_unsharded(seed):
    sends = _schedule(seed)

    plain_sim = Simulator()
    plain_topo = _topology()
    plain = StabilizerCluster(
        plain_topo.build(plain_sim),
        StabilizerConfig.from_topology(
            plain_topo, NODES[0], predicates=dict(UNSHARDED),
            control_interval_s=0.001,
        ),
    )
    shard_sim = Simulator()
    sharded = build_sharded_cluster(
        _topology().build(shard_sim),
        dict(SHARDED),
        shard_count=4,
        control_interval_s=0.001,
    )
    shard_map = sharded.shard_map

    counts = {}
    for _t, origin, _size, key in sends:
        slot = (origin, shard_map.shard_of(key))
        counts[slot] = counts.get(slot, 0) + 1

    plain_phases = _drive(plain, plain_sim, sends, sharded=False)
    shard_phases = _drive(sharded, shard_sim, sends, sharded=True)
    phases_run = 0
    for phase, _ in zip(plain_phases, shard_phases):
        phases_run = phase + 1
    assert phases_run == 2

    sent_so_far = {}
    for _t, origin, _size, key in sends:
        slot = (origin, shard_map.shard_of(key))
        sent_so_far[slot] = sent_so_far.get(slot, 0) + 1
    for name in NODES:
        for origin in NODES:
            per_shard = [
                sharded[name].get_stability_frontier("all", origin, shard=s)
                for s in range(4)
            ]
            # Every shard's frontier is exactly what that shard carried...
            for s, frontier in enumerate(per_shard):
                assert frontier == sent_so_far.get((origin, s), 0)
            # ...and the shards together carry exactly the unsharded stream.
            assert sum(per_shard) == plain[name].get_stability_frontier(
                "all", origin
            )
    # The keys must have spread across shards, or the split proved nothing.
    assert len({shard for (_o, shard) in counts}) > 1
    plain.close()
    sharded.close()


@pytest.mark.parametrize("seed", [7, 1234])
def test_single_shard_degenerate_matches_unsharded_callbacks(seed):
    """One monitor and one delivery handler on each node's stacks: the
    twins make the same calls in the same order at the same virtual
    times."""
    sends = _schedule(seed)

    def observe(cluster, sim, sharded):
        calls = []
        for name in NODES:
            for stack in cluster[name].stacks().values():
                def monitor(origin, frontier, old, name=name):
                    calls.append((sim.now, name, "advance", origin, frontier, old))

                def deliver(origin, seq, _payload, _meta, name=name):
                    calls.append((sim.now, name, "deliver", origin, seq))

                stack.monitor_stability_frontier("all", monitor)
                stack.on_delivery(deliver)
        for _ in _drive(cluster, sim, sends, sharded=sharded):
            pass
        cluster.close()
        return calls

    plain_sim = Simulator()
    plain_topo = _topology()
    plain = StabilizerCluster(
        plain_topo.build(plain_sim),
        StabilizerConfig.from_topology(
            plain_topo, NODES[0], predicates=dict(UNSHARDED),
            control_interval_s=0.001,
        ),
    )
    shard_sim = Simulator()
    sharded = build_sharded_cluster(
        _topology().build(shard_sim),
        dict(SHARDED),
        shard_count=1,
        control_interval_s=0.001,
    )
    expected = observe(plain, plain_sim, sharded=False)
    assert observe(sharded, shard_sim, sharded=True) == expected
    assert {call[2] for call in expected} == {"advance", "deliver"}
