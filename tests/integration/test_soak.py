"""Soak test: a long mixed run under a scripted fault storm.

Everything at once — chunked sends, packet loss, a crash + recovery, a
partition + heal, and a link brown-out — with the end-state invariants
checked: every message fully replicated, buffers drained, frontiers
agreeing at every node, monitors monotone throughout.
"""

import os

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.net.faults import FaultSchedule
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.transport.messages import SyntheticPayload
from repro.workloads import constant_rate
from repro.workloads.filesizes import bounded_lognormal

NODES = ["origin", "n1", "n2", "n3", "n4"]


def test_soak_mixed_faults_converge():
    messages = 400 if os.environ.get("REPRO_FULL") == "1" else 120
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=15, rate_mbit=60, loss_rate=0.05))
    sim = Simulator()
    rng = RngRegistry(99)
    net = topo.build(sim, rng)
    config = StabilizerConfig(
        NODES,
        {n: [n] for n in NODES},
        "origin",
        predicates={
            "all": "MIN($ALLWNODES - $MYWNODE)",
            "majority": "KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)",
        },
        control_interval_s=0.005,
    )
    cluster = StabilizerCluster(net, config)
    origin = cluster["origin"]

    monotone = {"all": [], "majority": []}
    for key in monotone:
        origin.monitor_stability_frontier(
            key, lambda o, new, old, _k=key: monotone[_k].append(new)
        )

    send_duration = messages / 40.0
    (
        FaultSchedule(net)
        .crash(send_duration * 0.2, "n3")
        .recover(send_duration * 0.5, "n3")
        .partition(send_duration * 0.6, ["origin"], ["n1"])
        .heal(send_duration * 0.8)
        .degrade_link(send_duration * 0.4, "origin", "n2", bandwidth_bps=10e6)
        .arm()
    )

    sizes = rng.stream("soak-sizes")

    def send(_i):
        origin.send(
            SyntheticPayload(
                bounded_lognormal(sizes, 6_000, 1.5, 200_000)
            )
        )

    constant_rate(sim, 40.0, messages, send)
    sim.run(until=send_duration + 120.0)

    last = origin.last_sent_seq()
    assert last >= messages
    # Convergence: every mirror holds the whole stream.
    for name in NODES[1:]:
        assert cluster[name].dataplane.highest_received("origin") == last
    # The strictest frontier reached the end at the origin and at peers.
    assert origin.get_stability_frontier("all") == last
    for name in NODES[1:]:
        assert (
            cluster[name].get_stability_frontier("all", origin="origin") == last
        )
    # Buffers fully reclaimed (global delivery confirmed).
    assert origin.dataplane.buffer.buffered_bytes() == 0
    # Monitors never regressed and ended at the last message.
    for key, values in monotone.items():
        assert values == sorted(values)
        assert values[-1] == last
    # The crash was actually observed and recovered from.
    assert origin.detector.last_heard("n3") is not None
