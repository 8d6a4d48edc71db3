"""WAN K/V store tests (Section V-A semantics)."""

import pytest

from repro.apps import WanKVStore
from repro.core import StabilizerCluster, StabilizerConfig
from repro.errors import NotPrimaryError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload

NODES = ["east1", "east2", "west1", "west2"]
GROUPS = {"east": ["east1", "east2"], "west": ["west1", "west2"]}


def build(**config_kwargs):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, "east" if name.startswith("east") else "west")
    topo.set_default(NetemSpec(latency_ms=10, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES, GROUPS, "east1", control_interval_s=0.001, **config_kwargs
    )
    cluster = StabilizerCluster(net, config)
    stores = {name: WanKVStore(cluster[name]) for name in NODES}
    return sim, net, stores


def test_put_is_locally_stable_immediately():
    sim, net, stores = build()
    result = stores["east1"].put("k", b"v")
    assert stores["east1"].get("k").value == b"v"
    assert result.seq == 1
    assert result.version.version == 1


def test_mirrors_receive_updates():
    sim, net, stores = build()
    stores["east1"].put("k", b"v")
    sim.run(until=1.0)
    for name in NODES:
        assert stores[name].get("k").value == b"v"
        assert stores[name].owner("k") == "east1"


def test_primary_site_rule_blocks_remote_writes():
    sim, net, stores = build()
    stores["east1"].put("k", b"v")
    sim.run(until=1.0)
    with pytest.raises(NotPrimaryError, match="owned by 'east1'"):
        stores["west1"].put("k", b"other")


def test_each_site_owns_its_own_pool():
    sim, net, stores = build()
    stores["east1"].put("east-key", b"1")
    stores["west1"].put("west-key", b"2")
    sim.run(until=1.0)
    assert stores["east1"].get("west-key").value == b"2"
    assert stores["west1"].get("east-key").value == b"1"
    # Each primary can update its own key again.
    stores["west1"].put("west-key", b"2b")
    sim.run(until=2.0)
    assert stores["east1"].get("west-key").value == b"2b"
    assert stores["east1"].get("west-key").version == 2


def test_put_wait_majority():
    sim, net, stores = build()
    kv = stores["east1"]
    kv.register_predicate(
        "MajorityWNodes",
        "KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, ($ALLWNODES - $MYWNODE))",
    )
    result, stable = kv.put_wait("k", SyntheticPayload(8192), "MajorityWNodes")
    sim.run_until_triggered(stable, limit=2.0)
    assert kv.get_stability_frontier("MajorityWNodes") >= result.seq


def test_persisted_acks_reported_by_mirrors():
    sim, net, stores = build()
    kv = stores["east1"]
    kv.register_predicate(
        "persisted_all", "MIN(($ALLWNODES - $MYWNODE).persisted)"
    )
    result, stable = kv.put_wait("k", b"v", "persisted_all")
    sim.run_until_triggered(stable, limit=2.0)
    assert kv.get_stability_frontier("persisted_all") >= result.seq


def test_synthetic_values_flow_end_to_end():
    sim, net, stores = build()
    stores["east1"].put("big", SyntheticPayload(100_000))
    sim.run(until=2.0)
    assert stores["west2"].get("big").value == SyntheticPayload(100_000)
