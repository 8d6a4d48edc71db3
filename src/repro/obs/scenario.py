"""The instrumented demo run behind ``repro obs``.

A small 3-AZ deployment with tracing enabled end to end: every node
sends a share of the traffic, the run drains until every node's own
stream is covered by the strict all-remote predicate, and the result
carries each node's metrics snapshot (stability-latency histograms,
frontier-lag gauges, plane counters) plus the shared trace ring for
JSONL / Chrome export.

Lives outside :mod:`repro.obs`'s import graph on purpose: this module
imports :mod:`repro.core`, which imports :mod:`repro.obs` — the CLI
pulls it in lazily.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload

STRICT_KEY = "all_remote"
RELAXED_KEY = "any_remote"
DURABLE_KEY = "durable_all"
#: Each node sends one message per interval (virtual seconds).
SEND_INTERVAL_S = 0.02
#: The trace ring's size, in events.
TRACE_CAPACITY = 65536
#: How often a metrics snapshot is streamed (virtual seconds).
SNAPSHOT_INTERVAL_S = 0.25


def run_obs_scenario(
    nodes: int = 3,
    messages: int = 120,
    seed: int = 0,
    durability: bool = False,
    payload_bytes: int = 512,
    latency_ms: float = 10.0,
    tracer: Optional[Tracer] = None,
    sample_shift: int = 0,
    snapshots_out: Optional[str] = None,
    slo_threshold_s: Optional[float] = None,
) -> Dict[str, object]:
    """Run the scenario; returns stats snapshots and the trace ring.

    ``sample_shift`` keeps 1/2^shift of per-sequence trace events
    (head-based, seeded — every node reaches the same verdict);
    ``snapshots_out`` streams periodic JSONL metric snapshots (the file
    ``repro top`` tails); ``slo_threshold_s`` arms a multi-window
    burn-rate alerter per node over every predicate's send→stable
    latency.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    names = [f"n{i}" for i in range(nodes)]
    topo = Topology.uniform(
        {name: f"az{i % 3}" for i, name in enumerate(names)},
        NetemSpec(latency_ms=latency_ms, rate_mbit=100),
    )
    sim = Simulator()
    net = topo.build(sim, RngRegistry(seed))
    if tracer is None:
        tracer = Tracer(
            clock=sim.clock, capacity=TRACE_CAPACITY, enabled=True,
            sample_shift=sample_shift, sample_seed=seed,
        )
    predicates = {
        STRICT_KEY: "MIN($ALLWNODES - $MYWNODE)",
        RELAXED_KEY: "MAX($ALLWNODES - $MYWNODE)",
    }
    if durability:
        predicates[DURABLE_KEY] = "MIN($ALLWNODES.persisted)"
    config = StabilizerConfig.from_topology(
        topo,
        local=names[0],
        predicates=predicates,
        control_interval_s=0.005,
        durability=durability,
    )
    fs_factory = None
    if durability:
        def fs_factory(name):
            return MemoryFileSystem(seed=(seed << 8) ^ names.index(name))

    cluster = StabilizerCluster(
        net, config, fs_factory=fs_factory, tracer=tracer
    )
    for name in names:
        cluster[name].blame_in_stats = True

    alerters = {}
    if slo_threshold_s is not None:
        from repro.obs.alerts import SloAlerter, SloRule

        for name in names:
            node = cluster[name]
            rules = [
                SloRule(
                    f"stable.{key}.slow", f"stable.{key}",
                    threshold=slo_threshold_s, target=0.9,
                    windows=((0.5, 2.0, 4.0),),
                )
                for key in predicates
            ]
            alerter = SloAlerter(
                clock=sim.clock, rules=rules, tracer=tracer, node=name
            )
            node.attach_alerter(alerter)
            alerters[name] = alerter

    writer = None
    if snapshots_out is not None:
        from repro.obs.export import SnapshotWriter

        writer = SnapshotWriter(snapshots_out)

        def snapshot_tick() -> None:
            writer.append(
                sim.now,
                {name: cluster[name].obs_snapshot() for name in names},
            )
            for alerter in alerters.values():
                alerter.evaluate()
            sim.call_later(SNAPSHOT_INTERVAL_S, snapshot_tick)

        sim.call_later(SNAPSHOT_INTERVAL_S, snapshot_tick)

    per_node = max(1, messages // nodes)

    def send_tick(name: str, remaining: int) -> None:
        cluster[name].send(SyntheticPayload(payload_bytes))
        if remaining > 1:
            sim.call_later(SEND_INTERVAL_S, send_tick, name, remaining - 1)

    for i, name in enumerate(names):
        # Stagger first sends so streams do not tick in lockstep.
        sim.call_later(
            SEND_INTERVAL_S * (i + 1) / nodes, send_tick, name, per_node
        )

    # Drain: every node's own last message covered by the strict
    # predicate *at that node* (which implies every remote received it).
    sim.run(until=SEND_INTERVAL_S * per_node + 1.0)
    drain_key = DURABLE_KEY if durability else STRICT_KEY
    for name in names:
        node = cluster[name]
        event = node.waitfor(node.last_sent_seq(), drain_key)
        sim.run_until_triggered(event, limit=sim.now + 60.0)
    sim.run(until=sim.now + 0.5)  # let trailing control frames land

    snapshots = {name: cluster[name].obs_snapshot() for name in names}
    stability = {
        name: cluster[name].stability.summaries() for name in names
    }
    result = {
        "nodes": names,
        "messages_per_node": per_node,
        "virtual_end_s": sim.now,
        "snapshots": snapshots,
        "stability_latency": stability,
        "tracer": tracer,
    }
    if writer is not None:
        # One final record so the dashboard's last frame is the drained
        # end state, then stop tailing.
        writer.append(sim.now, snapshots)
        writer.close()
        result["snapshot_records"] = writer.records
    if alerters:
        result["alerts"] = {
            name: [a.to_dict() for a in alerter.history]
            for name, alerter in alerters.items()
        }
    cluster.close()
    return result
