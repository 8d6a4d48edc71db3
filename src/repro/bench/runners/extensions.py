"""Extensions and ablations beyond the paper's figures: each has a driver
here and a module under ``benchmarks/`` that prints and gates it."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.runners.fig7 import PUBSUB_MESSAGE_BYTES
from repro.bench.runners.kit import (
    StabilityProbe,
    build_cluster,
    build_network,
    drain,
)
from repro.bench.topologies import (
    CLOUDLAB_SENDER,
    EC2_SENDER,
    cloudlab_topology,
    ec2_topology,
)
from repro.dsl.stdlib import standard_predicates
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.paxos import PaxosCluster
from repro.sim.monitor import mean
from repro.transport.messages import SyntheticPayload
from repro.workloads.rates import constant_rate

# ---------------------------------------------------------------------------
# Extension: RedBlue (Gemini) two-level consistency vs the predicate continuum.
# ---------------------------------------------------------------------------


def run_redblue_comparison(operations: int = 15) -> Dict[str, float]:
    """Compare Gemini-style RedBlue against Stabilizer predicates.

    RedBlue offers exactly two levels: blue (local now, eventual
    convergence) and red (a Paxos commit over a node-counted majority).
    Stabilizer's continuum offers points in between — here
    MajorityRegions, which is durable across regions yet cheaper than the
    node-majority red tier on the Fig. 2 topology.
    """
    from repro.apps.redblue import build_redblue_sites

    topo = ec2_topology()
    sim, net = build_network(topo)
    predicates = standard_predicates(topo.groups(), EC2_SENDER)
    cluster = build_cluster(net, control_interval_s=0.002)
    paxos = PaxosCluster(net, leader=EC2_SENDER)
    sites = build_redblue_sites(
        {n: cluster[n] for n in topo.node_names()},
        {n: paxos[n] for n in topo.node_names()},
    )
    for site in sites.values():
        site.register_blue("add", lambda s, a: {**s, "n": s.get("n", 0) + a})
        site.register_red("set", lambda s, a: {**s, "n": a})
    hq = sites[EC2_SENDER]
    hq.stabilizer.register_predicate(
        "MajorityRegions", predicates["MajorityRegions"]
    )
    hq.stabilizer.register_predicate("AllWNodes", predicates["AllWNodes"])
    warmup = paxos.submit(b'{"op": "set", "args": 0}')
    sim.run_until_triggered(warmup, limit=10.0)

    def mean_ms(begin) -> float:
        """Mean time from ``begin() -> event`` to the event, one
        operation at a time."""
        latencies = []
        for _ in range(operations):
            start = sim.now
            sim.run_until_triggered(begin(), limit=30.0)
            latencies.append(sim.now - start)
            sim.run(until=sim.now + 0.05)
        return mean(latencies) * 1e3

    stabilizer = hq.stabilizer
    return {
        "blue_local_ms": 0.0,
        # Blue: local apply is free; convergence = every site has the op.
        "blue_convergence_ms": mean_ms(
            lambda: stabilizer.waitfor(hq.execute_blue("add", 1), "AllWNodes")
        ),
        # Red: a Paxos commit (node-counted majority).
        "red_commit_ms": mean_ms(lambda: hq.execute_red("set", 7)),
        # The continuum point RedBlue cannot express: region-majority durable.
        "stabilizer_majority_regions_ms": mean_ms(
            lambda: stabilizer.waitfor(
                stabilizer.send(SyntheticPayload(256)), "MajorityRegions"
            )
        ),
        "operations": float(operations),
    }


# ---------------------------------------------------------------------------
# Extension: scaling the number of WAN nodes.
# ---------------------------------------------------------------------------


def run_scalability(
    node_counts: Sequence[int] = (4, 8, 16, 32),
    messages: int = 30,
    rate: float = 50.0,
) -> List[Dict[str, float]]:
    """Geo-replication factor sweep (the paper sized its DSL microbench
    "for small to large cloud applications"; this sizes the whole stack).

    Uniform 30 ms / 100 Mbit links, nodes paired into regions.  Reports
    mean AllWNodes detection latency (should stay flat: the ACK path is
    one RTT regardless of fan-out), control frames (grows with n), and
    predicate evaluations at the sender.
    """
    rows = []
    for count in node_counts:
        topo = Topology.uniform(
            {f"s{i}": f"region{i // 2}" for i in range(count)},
            NetemSpec(latency_ms=30, rate_mbit=100),
            name=f"scale-{count}",
        )
        sim, net = build_network(topo)
        cluster = build_cluster(net, control_interval_s=0.002)
        sender = cluster["s0"]
        sender.register_predicate("all", "MIN($ALLWNODES - $MYWNODE)")
        probe = StabilityProbe(sim, sender, ["all"])
        constant_rate(
            sim, rate, messages,
            lambda _i: probe.send(SyntheticPayload(PUBSUB_MESSAGE_BYTES)),
        )
        sim.run(until=messages / rate + 10.0)
        latencies = [sample.latency for sample in probe.samples["all"]]
        total_frames = sum(node.controlplane.frames_sent for node in cluster)
        rows.append(
            {
                "nodes": float(count),
                "all_wnodes_ms": mean(latencies) * 1e3,
                "completed": float(len(latencies)),
                # The ACK stream proper: reports arriving at the origin.
                "ack_frames_at_sender": float(sender.controlplane.frames_received),
                # Includes full-mesh heartbeats, which are quadratic by
                # design (every node proves liveness to every other).
                "total_control_frames": float(total_frames),
                "sender_evaluations": float(sender.engine.evaluations),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Extension: frontier latency under regional cross-traffic.
# ---------------------------------------------------------------------------


def run_cross_traffic(
    fractions: Sequence[float] = (0.0, 0.6, 0.95),
    messages: int = 80,
    rate: float = 40.0,
    congested_region: str = "North Virginia",
) -> List[Dict[str, float]]:
    """Congest one region's links and measure per-predicate latency.

    An extension beyond the paper: node-counted consistency models
    (MajorityWNodes, AllWNodes) must wait on the congested region, while
    MajorityRegions — which any two healthy regions satisfy — barely
    notices.  Quantifies the value of topology-aware predicates under
    contention, not just under the paper's static bandwidth differences.
    """
    from repro.net.crosstraffic import congest_region

    keys = ("MajorityRegions", "MajorityWNodes", "AllWNodes")
    rows: List[Dict[str, float]] = []
    for fraction in fractions:
        topo = ec2_topology()
        sim, net = build_network(topo)
        predicates = standard_predicates(topo.groups(), EC2_SENDER)
        cluster = build_cluster(net, control_interval_s=0.002)
        sender = cluster[EC2_SENDER]
        for key in keys:
            sender.register_predicate(key, predicates[key])
        if fraction > 0:
            congest_region(net, congested_region, fraction, from_node=EC2_SENDER)
        probe = StabilityProbe(sim, sender, keys)
        constant_rate(
            sim, rate, messages,
            lambda _i: probe.send(SyntheticPayload(PUBSUB_MESSAGE_BYTES)),
        )
        sim.run(until=messages / rate + 60.0)
        row: Dict[str, float] = {"fraction": fraction}
        for key, samples in probe.samples.items():
            row[f"{key}_ms"] = mean(sample.latency for sample in samples) * 1e3
            row[f"{key}_done"] = float(len(samples))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Ablation: the 8 KB data-plane chunk size.
# ---------------------------------------------------------------------------


def run_chunk_size_ablation(
    chunk_sizes: Sequence[int] = (1024, 8 * 1024, 64 * 1024, 512 * 1024),
    file_bytes: int = 4_000_000,
) -> List[Dict[str, float]]:
    """Sweep the split threshold the paper fixes at 8 KB.

    Per chunk size: the time for one ``file_bytes`` file to reach
    MajorityRegions stability (per-chunk headers cost wire time at small
    chunks), the number of sequenced messages, how often the frontier
    advanced (small chunks give fine-grained progress tracking, large
    chunks coarse jumps), and the control frames spent.
    """
    rows = []
    for chunk in chunk_sizes:
        topo = ec2_topology()
        sim, net = build_network(topo)
        predicates = standard_predicates(topo.groups(), EC2_SENDER)
        cluster = build_cluster(
            net, predicates, control_interval_s=0.002, chunk_bytes=chunk
        )
        sender = cluster[EC2_SENDER]
        advances = [0]
        sender.monitor_stability_frontier(
            "MajorityRegions",
            lambda origin, new, old: advances.__setitem__(0, advances[0] + 1),
        )
        start = sim.now
        big_seq = sender.send(SyntheticPayload(file_bytes))
        big_done = sender.waitfor(big_seq, "MajorityRegions")
        sim.run_until_triggered(big_done, limit=3600.0)
        frames = sum(node.controlplane.frames_sent for node in cluster)
        rows.append(
            {
                "chunk_bytes": float(chunk),
                "file_sync_s": sim.now - start,
                "messages": float(big_seq),
                "frontier_advances": float(advances[0]),
                "control_frames": float(frames),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Ablation: control-plane ACK batching.
# ---------------------------------------------------------------------------


def run_ack_batching(
    intervals_s: Sequence[float] = (0.001, 0.005, 0.02, 0.05, 0.1),
    messages: int = 200,
    rate: float = 100.0,
) -> List[Dict[str, float]]:
    """Sweep the control-plane flush interval: detection lag vs reports.

    ``control_reports`` is the engine's own count of batched reports put
    on the wire — the quantity batching controls.  ``control_frames`` is
    everything the carrier sent, which adds a floor of tail probes and
    heartbeats that does not shrink with the interval (and grows where
    the interval reaches ``transport_min_rto_s``)."""
    rows = []
    for interval in intervals_s:
        sim, net = build_network(ec2_topology())
        cluster = build_cluster(
            net,
            {"one": "MAX($ALLWNODES - $MYWNODE)"},
            control_interval_s=interval,
            control_batch=10**9,  # isolate the timer effect
        )
        probe = StabilityProbe(sim, cluster[EC2_SENDER], ["one"])
        constant_rate(
            sim, rate, messages, lambda _i: probe.send(SyntheticPayload(1024))
        )
        sim.run(until=messages / rate + 10.0)
        latencies = [sample.latency for sample in probe.samples["one"]]
        reports = sum(node.strategy.reports_sent for node in cluster)
        frames = sum(node.controlplane.frames_sent for node in cluster)
        rows.append(
            {
                "interval_ms": interval * 1e3,
                "mean_detect_latency_ms": mean(latencies) * 1e3,
                "control_reports": float(reports),
                "control_frames": float(frames),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Strategy head-to-head: one WAN workload per stabilization engine.
# ---------------------------------------------------------------------------


def run_strategy_comparison(
    strategies: Sequence[str] = ("acktable", "sequencer", "hybrid_clock"),
    messages: int = 120,
    rate: float = 100.0,
    payload_bytes: int = 512,
    seed: int = 0,
) -> Dict[str, object]:
    """The identical CloudLab WAN workload (Table II topology, sender at
    UT1) once per stabilization engine (docs/strategies.md): ``messages``
    payloads at ``rate`` Hz, each timed from send to all-nodes stability
    at the sender.  Per engine: stability-latency percentiles, cluster-
    wide control bytes per second, and delivered (stabilized) throughput.
    Only the control protocol varies — workload, network, and cadence
    knobs are held fixed, so the rows compare protocols, not tuning.
    Every site listens (a monitor each: the paper's "each WAN site
    independently evaluating its predicates"), so the ACK-table row is the
    every-to-every report stream the other two engines are alternatives
    to; with the sender alone listening its reports would follow demand
    and undercut both.
    """
    rows: List[Dict[str, object]] = []
    for name in strategies:
        sim, net = build_network(cloudlab_topology(), seed)
        cluster = build_cluster(
            net,
            {"all": "MIN($ALLWNODES - $MYWNODE)"},
            control_interval_s=0.005,
            stabilization_strategy=name,
        )
        sender = cluster[CLOUDLAB_SENDER]
        probe = StabilityProbe(sim, sender, ["all"])
        samples = probe.samples["all"]
        for node in cluster:
            if node is not sender:
                node.monitor_stability_frontier("all", lambda *_advance: None)
        interval = 1.0 / rate
        for i in range(messages):
            sim.call_later(i * interval, probe.send, SyntheticPayload(payload_bytes))
        sim.run(until=messages * interval)
        # Drain until every message stabilized.
        converged = drain(
            sim, lambda: len(samples) >= messages, slice_s=0.1, max_slices=300
        )
        latencies = [sample.latency for sample in samples]
        span_s = samples[-1].stable if samples else sim.now
        control_bytes = control_frames = 0.0
        for node_name in net.topology.node_names():
            stats = cluster[node_name].stats()
            control_bytes += stats["strategy.bytes_sent"]
            control_frames += stats["strategy.frames_sent"]
        ordered = sorted(latencies)

        def pct(p: float) -> float:
            if not ordered:
                return 0.0
            return ordered[min(
                len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1)))
            )]

        rows.append(
            {
                "strategy": name,
                "converged": converged,
                "stabilized": len(latencies),
                "latency_p50_s": pct(50.0),
                "latency_p99_s": pct(99.0),
                "control_bytes": control_bytes,
                "control_frames": control_frames,
                "control_bytes_per_s": control_bytes / span_s,
                "delivered_throughput_mps": len(latencies) / span_s,
                "span_s": span_s,
            }
        )
        cluster.close()
    return {
        "config": {
            "topology": "cloudlab",
            "sender": CLOUDLAB_SENDER,
            "messages": messages,
            "rate_per_s": rate,
            "payload_bytes": payload_bytes,
            "seed": seed,
        },
        "rows": rows,
    }
