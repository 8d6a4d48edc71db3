"""Tests for automatic predicate adjustment on failures (Section III-E):
the stock degradation policy's masking rewrite."""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.core.degradation import MaskSuspectedPolicy
from repro.net import NetemSpec, Topology
from repro.sim import Simulator

NODES = ["a", "b", "c", "d"]


def build(failure_timeout_s=0.3, predicates=None, protect=frozenset()):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        {n: [n] for n in NODES},
        "a",
        predicates=predicates
        or {
            "all": "MIN($ALLWNODES - $MYWNODE)",
            "named": "MIN($WNODE_c, $WNODE_d)",
        },
        control_interval_s=0.001,
        failure_timeout_s=failure_timeout_s,
    )
    cluster = StabilizerCluster(net, config)
    a = cluster["a"]
    policy = a.set_degradation_policy(MaskSuspectedPolicy(protect=set(protect)))
    return sim, net, cluster, policy


def test_crash_unblocks_dependent_predicates():
    sim, net, cluster, policy = build()
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("d")
    seq = a.send(b"after crash")
    event = a.waitfor(seq, "all")
    sim.run_until_triggered(event, limit=10.0)  # without adjustment: stuck
    assert policy.excluded_nodes() == {"d"}
    assert "all" in policy.adjusted_keys()
    assert a.get_stability_frontier("all") >= seq


def test_named_node_references_are_substituted():
    sim, net, cluster, policy = build()
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("d")
    seq = a.send(b"x")
    event = a.waitfor(seq, "named")  # MIN($WNODE_c, $WNODE_d)
    sim.run_until_triggered(event, limit=10.0)
    source = a.engine.predicate("named").source
    assert "$WNODE_d" not in source
    assert "$MYWNODE" in source


def test_recovery_restores_original_predicates():
    sim, net, cluster, policy = build()
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("d")
    sim.run(until=2.0)
    assert policy.adjusted_keys()
    net.recover_node("d")
    seq = a.send(b"post recovery")
    sim.run(until=6.0)
    assert policy.excluded_nodes() == set()
    assert policy.adjusted_keys() == []
    assert a.engine.predicate("all").source == "MIN($ALLWNODES - $MYWNODE)"
    assert policy.restorations >= 1
    # With d back, the original strict predicate advances again.
    assert a.get_stability_frontier("all") >= seq


def test_protected_keys_are_left_alone():
    sim, net, cluster, policy = build(protect={"named"})
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.3)
    net.crash_node("d")
    sim.run(until=2.0)
    assert "named" not in policy.adjusted_keys()
    assert "all" in policy.adjusted_keys()
    assert a.engine.predicate("named").source == "MIN($WNODE_c, $WNODE_d)"


def test_independent_predicates_untouched():
    sim, net, cluster, policy = build(
        predicates={
            "bc_only": "MIN($WNODE_b, $WNODE_c)",
            "all": "MIN($ALLWNODES - $MYWNODE)",
        }
    )
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("d")
    sim.run(until=2.0)
    assert policy.adjusted_keys() == ["all"]
    assert a.engine.predicate("bc_only").source == "MIN($WNODE_b, $WNODE_c)"


def test_mask_name_boundaries():
    sim, net, cluster, policy = build()
    masked = policy._mask("MIN($WNODE_d, $WNODE_dd)", ["d"])
    assert masked == "MIN($MYWNODE, $WNODE_dd)"
    masked = policy._mask("MAX($ALLWNODES - $MYWNODE)", ["c", "d"])
    assert masked == "MAX(($ALLWNODES - $WNODE_c - $WNODE_d) - $MYWNODE)"
