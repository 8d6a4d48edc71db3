"""RedBlue consistency tests: the Gemini-style baseline the paper's intro
argues against (exactly two levels, strong and eventual)."""

import pytest

from repro.apps.redblue import RedBlueError, RedBlueKV, build_redblue_sites
from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.paxos import PaxosCluster
from repro.sim import Simulator

NODES = ["hq", "west", "east"]


def bank_ops(site: RedBlueKV) -> None:
    """The classic RedBlue banking example: deposits commute (blue),
    withdrawals must not overdraw (red)."""

    def deposit(state, args):
        state["balance"] = state.get("balance", 0) + args
        return state

    def withdraw(state, args):
        balance = state.get("balance", 0)
        if balance < args:
            raise RedBlueError("overdraft")
        state["balance"] = balance - args
        return state

    site.register_blue("deposit", deposit)
    site.register_red("withdraw", withdraw)


def build():
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=25, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES, {n: [n] for n in NODES}, "hq", control_interval_s=0.002
    )
    cluster = StabilizerCluster(net, config)
    paxos = PaxosCluster(net, leader="hq")
    sites = build_redblue_sites(
        {n: cluster[n] for n in NODES}, {n: paxos[n] for n in NODES}
    )
    for site in sites.values():
        bank_ops(site)
    warmup = paxos.submit(b'{"op": "withdraw", "args": 0}')
    sim.run_until_triggered(warmup, limit=5.0)  # Phase 1 done
    return sim, net, sites


def test_blue_op_applies_locally_at_once():
    sim, net, sites = build()
    sites["hq"].execute_blue("deposit", 100)
    assert sites["hq"].get("balance") == 100  # no waiting


def test_blue_ops_converge_across_sites():
    sim, net, sites = build()
    sites["hq"].execute_blue("deposit", 100)
    sites["west"].execute_blue("deposit", 50)
    sites["east"].execute_blue("deposit", 25)
    sim.run(until=2.0)
    for site in sites.values():
        assert site.get("balance") == 175


def test_red_op_totally_ordered_and_applied_everywhere():
    sim, net, sites = build()
    sites["hq"].execute_blue("deposit", 100)
    sim.run(until=1.0)
    event = sites["hq"].execute_red("withdraw", 60)
    outcome = sim.run_until_triggered(event, limit=5.0)
    assert outcome["accepted"] is True
    sim.run(until=sim.now + 2.0)
    for site in sites.values():
        assert site.get("balance") == 40


def test_overdraft_rejected_deterministically():
    sim, net, sites = build()
    sites["hq"].execute_blue("deposit", 100)
    sim.run(until=1.0)
    # Two withdrawals that individually pass the balance check but cannot
    # both succeed — the reason withdrawals are red.
    e1 = sites["hq"].execute_red("withdraw", 80)
    e2 = sites["hq"].execute_red("withdraw", 80)
    outcomes = [sim.run_until_triggered(e, limit=5.0) for e in (e1, e2)]
    accepted = [o["accepted"] for o in outcomes]
    assert sorted(accepted) == [False, True]  # exactly one wins
    sim.run(until=sim.now + 2.0)
    for site in sites.values():
        assert site.get("balance") == 20
        assert site.red_rejected == 1  # every site agrees on the reject


def test_wrong_color_rejected():
    sim, net, sites = build()
    with pytest.raises(RedBlueError, match="not a blue"):
        sites["hq"].execute_blue("withdraw", 1)
    with pytest.raises(RedBlueError, match="not a red"):
        sites["hq"].execute_red("deposit", 1)
    with pytest.raises(RedBlueError, match="already registered"):
        sites["hq"].register_blue("deposit", lambda s, a: s)


def test_blue_is_fast_red_pays_quorum_latency():
    """The two-level rigidity the paper criticizes: anything needing
    durability must pay the full Paxos round trip; Stabilizer predicates
    can sit anywhere in between."""
    sim, net, sites = build()
    sites["hq"].execute_blue("deposit", 10)
    blue_latency = 0.0  # applied synchronously
    start = sim.now
    event = sites["hq"].execute_red("withdraw", 1)
    sim.run_until_triggered(event, limit=5.0)
    red_latency = sim.now - start
    assert blue_latency == 0.0
    assert red_latency > 0.045  # ~one RTT to the quorum (50 ms)
