"""Extensions and ablations beyond the paper's figures, the durability
path's group-commit trade and the chaos harness's seeded runs: each has
a driver here and an :class:`~repro.bench.paper.Experiment` at the end
of the module that prints and checks it."""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_counters, format_table
from repro.bench.runners.fig7 import PUBSUB_MESSAGE_BYTES
from repro.bench.runners.hotpath import CALLS_TOLERANCE, wal_calls_per_record
from repro.bench.runners.kit import (
    StabilityProbe,
    build_cluster,
    build_network,
    count_calls,
    drain,
)
from repro.bench.runners.table3 import fig2_compiler, fig2_groups
from repro.bench.topologies import (
    CLOUDLAB_SENDER,
    EC2_SENDER,
    cloudlab_topology,
    ec2_topology,
)
from repro.core.cluster import StabilizerCluster
from repro.core.config import STRATEGY_NAMES, StabilizerConfig
from repro.dsl.interpreter import evaluate_ir
from repro.dsl.stdlib import standard_predicates
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.paxos import PaxosCluster
from repro.sim.kernel import Simulator
from repro.sim.monitor import mean
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload
from repro.workloads.rates import constant_rate

# ---------------------------------------------------------------------------
# Extension: RedBlue (Gemini) two-level consistency vs the predicate continuum.
# ---------------------------------------------------------------------------


def run_redblue_comparison(operations: int = 10) -> Dict[str, float]:
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
    messages: int = 150,
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
# Ablation: the JIT against the tree-walking interpreter.
# ---------------------------------------------------------------------------

#: The ACK table the JIT ablation evaluates on: one row per Fig. 2 node.
JIT_TABLE = [[i * 13 % 97, i * 7 % 89] for i in range(1, 9)]


def run_jit_ablation(rounds: int = 2000) -> Dict[str, object]:
    """The six Table III predicates, JIT-compiled against the Fig. 2
    deployment, against interpreting their IR (the paper JIT-compiles
    because frontier predicates sit on a high-rate critical path).

    Per mode: the six values on :data:`JIT_TABLE`, the Python calls one
    round of the six costs (exact), and — host time, printed only — the
    interpreter's wall-clock time over ``rounds`` rounds against the JIT's.
    """
    compiler = fig2_compiler()
    predicates = [
        compiler.compile(source)
        for source in standard_predicates(fig2_groups(), EC2_SENDER).values()
    ]

    def jit_round():
        return [p.evaluate(JIT_TABLE) for p in predicates]

    def interpreter_round():
        return [evaluate_ir(p.ir, JIT_TABLE) for p in predicates]

    result: Dict[str, object] = {"rounds": rounds}
    seconds = {}
    for mode, one_round in (("jit", jit_round), ("interpreter", interpreter_round)):
        result[mode], result[f"{mode}_calls_per_round"] = count_calls(one_round)
        started = time.perf_counter()
        for _ in range(rounds):
            one_round()
        seconds[mode] = time.perf_counter() - started
    result["speedup"] = seconds["interpreter"] / seconds["jit"]
    return result


# ---------------------------------------------------------------------------
# Strategy head-to-head: one WAN workload per stabilization engine.
# ---------------------------------------------------------------------------


def run_strategy_comparison(
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
    every-to-every report stream the sequencer is the alternative to; with
    the sender alone listening its reports would follow demand and
    undercut it.
    """
    rows: List[Dict[str, object]] = []
    for name in STRATEGY_NAMES:
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


# ---------------------------------------------------------------------------
# Durability: group-commit batch size vs persisted-stability latency.
# ---------------------------------------------------------------------------

GROUP_COMMIT_BATCHES = (1, 4, 16, 64)
#: The timer that backstops a partial batch — large enough that the
#: batch trigger, not the timer, dominates for small batches.
COMMIT_INTERVAL_S = 0.05
SEND_INTERVAL_S = 0.005
DURABLE_PAYLOAD_BYTES = 256


def run_group_commit_once(batch: int, messages: int) -> dict:
    """One 3-AZ cluster with WAL-backed ``.persisted``: ``messages`` sends
    from ``n-az0``, each timed by the origin's built-in instruments until
    ``MIN($ALLWNODES.persisted)`` covers it — fsync-backed on every node."""
    topo = Topology.uniform(
        {f"n-{az}": az for az in ("az0", "az1", "az2")},
        NetemSpec(latency_ms=10, rate_mbit=100),
    )
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig.from_topology(
        topo,
        local="n-az0",
        predicates={"durable": "MIN($ALLWNODES.persisted)"},
        control_interval_s=0.005,
        durability=True,
        durability_group_commit_batch=batch,
        durability_group_commit_interval_s=COMMIT_INTERVAL_S,
    )
    cluster = StabilizerCluster(
        net, config, fs_factory=lambda name: MemoryFileSystem(seed=batch)
    )
    origin = cluster["n-az0"]

    # The send->persisted-stable delay is measured by the origin's
    # built-in stability instruments: send() stamps every sequence
    # number, and the 'durable' histogram fills as the frontier advances.
    def send_tick(remaining):
        origin.send(SyntheticPayload(DURABLE_PAYLOAD_BYTES))
        if remaining > 1:
            sim.call_later(SEND_INTERVAL_S, send_tick, remaining - 1)

    sim.call_later(SEND_INTERVAL_S, send_tick, messages)
    deadline = SEND_INTERVAL_S * messages + 5.0
    sim.run(until=deadline)

    fsyncs = sum(node.stats()["durability.wal_group_commits"] for node in cluster)
    appends = sum(node.stats()["durability.wal_appends"] for node in cluster)
    hist = origin.registry.histogram("stability_latency.durable")
    cluster.close()
    if hist.count != messages:
        raise RuntimeError(
            f"batch {batch}: only {hist.count}/{messages} messages reached "
            "persisted stability before the deadline"
        )
    return {
        "batch": batch,
        "messages": messages,
        # count/sum/min/max are exact; p50/p99 are bucket-interpolated.
        "mean_ms": hist.mean * 1e3,
        "p50_ms": hist.percentile(50) * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "max_ms": hist.max * 1e3,
        "fsyncs": fsyncs,
        "fsyncs_per_message": fsyncs / messages,
        "wal_appends": appends,
    }


def run_group_commit(
    messages: int = 200, batches: Sequence[int] = GROUP_COMMIT_BATCHES
) -> List[dict]:
    """:func:`run_group_commit_once` per batch size, each row with the
    host cost of the append path at that batch in exact Python calls per
    record (:func:`~repro.bench.runners.hotpath.wal_calls_per_record`)."""
    rows = [run_group_commit_once(batch, messages) for batch in batches]
    for row in rows:
        row["calls_per_record"] = wal_calls_per_record(batch=row["batch"])
    return rows


# ---------------------------------------------------------------------------
# Chaos: seeded fault-injection runs under the full invariant checker.
# ---------------------------------------------------------------------------

CHAOS_SEEDS = (0, 7, 42)


def run_chaos_seeds(events: int = 14, seeds: Sequence[int] = CHAOS_SEEDS) -> List[dict]:
    """One seeded 3-AZ/6-node chaos run (crashes, partitions, heals under
    continuous traffic) of ``events`` faults per seed; the reports."""
    from repro.chaos import ChaosConfig, run_chaos

    return [run_chaos(ChaosConfig(seed=seed, events=events)) for seed in seeds]


# ---------------------------------------------------------------------------
# The declarations: printer, findings and scales per experiment.
# ---------------------------------------------------------------------------


def _render_ack_batching(rows) -> str:
    return format_table(
        [
            "flush interval ms",
            "mean detection lag ms",
            "control reports",
            "carrier frames",
        ],
        [
            (
                f"{r['interval_ms']:.1f}",
                f"{r['mean_detect_latency_ms']:.2f}",
                int(r["control_reports"]),
                int(r["control_frames"]),
            )
            for r in rows
        ],
        title="Ablation: control-plane flush interval vs detection lag",
    )


# The gate is on the engine's reports, the quantity batching controls; the
# carrier's frame count is shown beside it but also holds tail probes and
# heartbeats, which do not shrink with the interval.
@finding("detection lag grows with the flush interval", "monotonically higher lag")
def _lag_grows(rows):
    lags = [r["mean_detect_latency_ms"] for r in rows]
    return lags == sorted(lags), " -> ".join(f"{lag:.1f}" for lag in lags) + " ms"


@finding(
    "control reports fall as the interval grows", "no more reports, fewer at the end"
)
def _reports_fall(rows):
    reports = [r["control_reports"] for r in rows]
    holds = reports == sorted(reports, reverse=True) and reports[-1] < reports[0]
    return holds, " -> ".join(str(int(n)) for n in reports)


ACK_BATCHING = Experiment(
    name="ack_batching",
    help="ablation: control-plane flush interval",
    run=run_ack_batching,
    args=(),
    scales={
        "report": {"messages": 150},
        "default": {"messages": 150},
        "full": {"messages": 500},
    },
    render=_render_ack_batching,
    expectations=(_lag_grows, _reports_fall),
)


def _render_chunk_size(rows) -> str:
    return format_table(
        [
            "chunk bytes", "file sync s", "messages", "frontier advances",
            "control frames",
        ],
        [
            (
                int(r["chunk_bytes"]),
                f"{r['file_sync_s']:.3f}",
                int(r["messages"]),
                int(r["frontier_advances"]),
                int(r["control_frames"]),
            )
            for r in rows
        ],
        title="Ablation: chunk size, one file to MajorityRegions stability",
    )


def _by_chunk(rows) -> Dict[int, dict]:
    return {int(r["chunk_bytes"]): r for r in rows}


@finding("smaller chunks, more messages and finer progress", "1 KB vs 8 KB / 64 KB")
def _finer(rows):
    by_chunk = _by_chunk(rows)
    small, mid, large = by_chunk[1024], by_chunk[8192], by_chunk[65536]
    holds = (
        small["messages"] > mid["messages"]
        and small["frontier_advances"] > large["frontier_advances"]
    )
    return holds, (
        f"{int(small['messages'])} vs {int(mid['messages'])} messages, "
        f"{int(small['frontier_advances'])} vs {int(large['frontier_advances'])} advances"
    )


@finding("1 KB chunks pay header overhead on the wire", "1 KB syncs slower than 8 KB")
def _header_overhead(rows):
    by_chunk = _by_chunk(rows)
    small, mid = by_chunk[1024]["file_sync_s"], by_chunk[8192]["file_sync_s"]
    return small > mid, f"{small:.3f} s vs {mid:.3f} s"


# The header is already ~0.3 % of an 8 KB chunk.
@finding("beyond 8 KB the wire gain is marginal", "512 KB under 5 % faster than 8 KB")
def _marginal(rows):
    by_chunk = _by_chunk(rows)
    gain = 1 - by_chunk[524288]["file_sync_s"] / by_chunk[8192]["file_sync_s"]
    return gain < 0.05, f"{gain:.2%}"


CHUNK_SIZE = Experiment(
    name="chunk_size",
    help="ablation: the data plane's 8 KB split threshold",
    run=run_chunk_size_ablation,
    args=(),
    scales={
        "report": {"file_bytes": 4_000_000},
        "default": {"file_bytes": 4_000_000},
        "full": {"file_bytes": 16_000_000},
    },
    render=_render_chunk_size,
    expectations=(_finer, _header_overhead, _marginal),
)


def _render_jit(result) -> str:
    return format_counters(
        {
            "jit_calls_per_round": result["jit_calls_per_round"],
            "interpreter_calls_per_round": result["interpreter_calls_per_round"],
            "wall_speedup": round(result["speedup"], 2),
        },
        title=(
            "Ablation: JIT vs interpreter, the six Table III predicates per "
            f"round (wall speedup over {result['rounds']} rounds, not gated)"
        ),
    )


@finding("JIT values equal the interpreter's", "(differential check)", kind="exact")
def _jit_agrees(result):
    return result["jit"] == result["interpreter"], f"{result['jit']}"


#: The interpreter's Python calls per round over the JIT's: 154 vs 28.
#: It replaces a gate on the wall-clock speed-up (read ~3x, gated at
#: 1.5x): the counts are exact, so the ratio reads the same on a loaded
#: machine, and it is gated like the hot path's, less ``CALLS_TOLERANCE``.
JIT_CALLS_RATIO = 5.5


@finding(
    "interpreter calls per round vs the JIT's",
    f"the measured {JIT_CALLS_RATIO}x less {CALLS_TOLERANCE:.0%} "
    "(the paper JIT-compiles: predicates sit on the ACK path)",
    kind="exact",
)
def _jit_cheaper(result):
    ratio = result["interpreter_calls_per_round"] / result["jit_calls_per_round"]
    gate = JIT_CALLS_RATIO * (1 - CALLS_TOLERANCE)
    return ratio >= gate, f"{ratio:.2f}x (gate {gate:.2f}x)"


JIT = Experiment(
    name="jit",
    help="ablation: the JIT against the interpreter",
    run=run_jit_ablation,
    args=(),
    scales={
        "report": {"rounds": 200},
        "default": {"rounds": 2000},
        "full": {"rounds": 20_000},
    },
    render=_render_jit,
    expectations=(_jit_agrees, _jit_cheaper),
)


def _render_cross_traffic(rows) -> str:
    return format_table(
        [
            "NV cross-traffic", "MajorityRegions ms", "MajorityWNodes ms",
            "AllWNodes ms",
        ],
        [
            (
                f"{r['fraction'] * 100:.0f}%",
                f"{r['MajorityRegions_ms']:.2f}",
                f"{r['MajorityWNodes_ms']:.2f}",
                f"{r['AllWNodes_ms']:.2f}",
            )
            for r in rows
        ],
        title="Extension: stability latency vs North Virginia congestion",
    )


@finding(
    "node-counted predicates degrade under congestion",
    "AllWNodes and MajorityWNodes > 1.2x idle",
)
def _node_counted_degrade(rows):
    idle, congested = rows[0], rows[-1]
    ratios = {
        key: congested[f"{key}_ms"] / idle[f"{key}_ms"]
        for key in ("AllWNodes", "MajorityWNodes")
    }
    measured = ", ".join(f"{key} {ratio:.2f}x" for key, ratio in ratios.items())
    return all(ratio > 1.2 for ratio in ratios.values()), measured


@finding("MajorityRegions is insulated", "within 2 % of idle")
def _regions_insulated(rows):
    idle, congested = rows[0]["MajorityRegions_ms"], rows[-1]["MajorityRegions_ms"]
    drift = abs(congested - idle) / idle
    return drift < 0.02, f"{drift:.2%}"


# Reliability is unaffected, only latency: every predicate covers the
# same messages in every row, congested or not.
@finding(
    "every message completes under congestion",
    "same count, every predicate and row",
    kind="exact",
)
def _all_complete(rows):
    done = {r[key] for r in rows for key in r if key.endswith("_done")}
    return len(done) == 1, ", ".join(str(int(n)) for n in sorted(done))


CROSS_TRAFFIC = Experiment(
    name="cross_traffic",
    help="extension: consistency models under regional cross-traffic",
    run=run_cross_traffic,
    args=(),
    # The cost is the background flows over the 60 s drain, not the
    # message count: the report skips the middle fraction.
    scales={
        "report": {"messages": 80, "fractions": (0.0, 0.95)},
        "default": {"messages": 80},
        "full": {"messages": 200},
    },
    render=_render_cross_traffic,
    expectations=(_node_counted_degrade, _regions_insulated, _all_complete),
)


def _render_redblue(result) -> str:
    return format_table(
        ["consistency level", "latency ms", "durability"],
        [
            ("blue (local apply)", f"{result['blue_local_ms']:.2f}", "none yet"),
            (
                "blue (full convergence)",
                f"{result['blue_convergence_ms']:.2f}",
                "eventual, unconfirmed",
            ),
            (
                "Stabilizer MajorityRegions",
                f"{result['stabilizer_majority_regions_ms']:.2f}",
                "2 of 3 remote regions, confirmed",
            ),
            (
                "red (Paxos commit)",
                f"{result['red_commit_ms']:.2f}",
                "node-majority, totally ordered",
            ),
        ],
        title="Extension: RedBlue's two levels vs a predicate in between",
    )


# The gap RedBlue cannot fill: confirmed cross-region durability strictly
# cheaper than the red tier.
@finding(
    "MajorityRegions durability is cheaper than the red tier",
    "Stabilizer MajorityRegions < Paxos commit",
)
def _between_the_tiers(result):
    stabilizer, red = result["stabilizer_majority_regions_ms"], result["red_commit_ms"]
    return stabilizer < red, f"{stabilizer:.2f} ms vs {red:.2f} ms"


@finding("blue applies locally", "0 ms", kind="exact")
def _blue_is_local(result):
    return result["blue_local_ms"] == 0.0, f"{result['blue_local_ms']} ms"


REDBLUE = Experiment(
    name="redblue",
    help="extension: Gemini-style RedBlue vs the predicate continuum",
    run=run_redblue_comparison,
    args=(),
    scales={
        "report": {"operations": 10},
        "default": {"operations": 10},
        "full": {"operations": 30},
    },
    render=_render_redblue,
    expectations=(_between_the_tiers, _blue_is_local),
)


def _render_scalability(rows) -> str:
    return format_table(
        [
            "WAN nodes",
            "AllWNodes latency ms",
            "completed",
            "ACK frames at sender",
            "total ctrl frames",
            "sender evaluations",
        ],
        [
            (
                int(r["nodes"]),
                f"{r['all_wnodes_ms']:.2f}",
                int(r["completed"]),
                int(r["ack_frames_at_sender"]),
                int(r["total_control_frames"]),
                int(r["sender_evaluations"]),
            )
            for r in rows
        ],
        title="Extension: stack behaviour vs geo-replication factor",
    )


@finding(
    "every deployment completes the workload", "same count at every size", kind="exact"
)
def _scale_completes(rows):
    done = {r["completed"] for r in rows}
    return len(done) == 1, ", ".join(str(int(n)) for n in sorted(done))


@finding("detection latency stays flat", "largest within 20 % of the smallest")
def _latency_flat(rows):
    first, last = rows[0]["all_wnodes_ms"], rows[-1]["all_wnodes_ms"]
    return last < first * 1.2, f"{first:.2f} -> {last:.2f} ms"


# Total control frames include the full-mesh heartbeats, quadratic by
# design — a gossip detector would flatten them.
@finding(
    "the ACK stream grows at most linearly in n", "frame ratio < 1.5x the node ratio"
)
def _acks_linear(rows):
    first, last = rows[0], rows[-1]
    ratio = last["ack_frames_at_sender"] / first["ack_frames_at_sender"]
    node_ratio = last["nodes"] / first["nodes"]
    return ratio < node_ratio * 1.5, f"{ratio:.2f}x frames for {node_ratio:.0f}x nodes"


SCALABILITY = Experiment(
    name="scalability",
    help="extension: scaling the geo-replication factor",
    run=run_scalability,
    args=(),
    scales={
        "report": {"node_counts": (4, 8, 16, 32)},
        "default": {"node_counts": (4, 8, 16, 32)},
        "full": {"node_counts": (4, 8, 16, 32, 64)},
    },
    render=_render_scalability,
    expectations=(_scale_completes, _latency_flat, _acks_linear),
)


def _render_strategies(result) -> str:
    config = result["config"]
    return format_table(
        [
            "engine", "p50 (ms)", "p99 (ms)", "ctrl B/s", "ctrl frames",
            "delivered msg/s",
        ],
        [
            (
                r["strategy"],
                f"{r['latency_p50_s'] * 1e3:.1f}",
                f"{r['latency_p99_s'] * 1e3:.1f}",
                f"{r['control_bytes_per_s']:.0f}",
                int(r["control_frames"]),
                f"{r['delivered_throughput_mps']:.1f}",
            )
            for r in result["rows"]
        ],
        title=(
            f"Stabilization engines, CloudLab WAN, "
            f"{config['messages']} msgs @ {config['rate_per_s']:.0f}/s"
        ),
    )


def _engines(result) -> Dict[str, dict]:
    return {r["strategy"]: r for r in result["rows"]}


@finding(
    "every engine stabilizes the whole workload",
    "both converge, each with control traffic",
    kind="exact",
)
def _engines_converge(result):
    engines = _engines(result)
    holds = set(engines) == set(STRATEGY_NAMES) and all(
        r["converged"] and r["control_bytes_per_s"] > 0 for r in engines.values()
    )
    return holds, ", ".join(f"{name}: {r['stabilized']}" for name, r in engines.items())


@finding(
    "the sequencer sends fewer control bytes than the ACK table",
    "one funnel beats every-to-every ACK streaming",
)
def _sequencer_funnels(result):
    engines = _engines(result)
    sequencer = engines["sequencer"]["control_bytes"]
    acktable = engines["acktable"]["control_bytes"]
    return sequencer < acktable, f"{sequencer:.0f} vs {acktable:.0f} B"


STRATEGIES = Experiment(
    name="strategies",
    help="the two stabilization engines head to head",
    run=run_strategy_comparison,
    args=(),
    scales={
        "report": {"messages": 120},
        "default": {"messages": 120},
        "full": {"messages": 480},
    },
    render=_render_strategies,
    expectations=(_engines_converge, _sequencer_funnels),
)


def _render_durability(rows) -> str:
    return format_table(
        [
            "batch", "msgs", "mean ms", "p50 ms", "p99 ms", "max ms", "fsyncs",
            "fsyncs/msg", "calls/record",
        ],
        [
            (
                r["batch"],
                r["messages"],
                f"{r['mean_ms']:.1f}",
                f"{r['p50_ms']:.1f}",
                f"{r['p99_ms']:.1f}",
                f"{r['max_ms']:.1f}",
                r["fsyncs"],
                f"{r['fsyncs_per_message']:.2f}",
                f"{r['calls_per_record']:.1f}",
            )
            for r in rows
        ],
        title="Persisted-stability latency (virtual) vs. group-commit batch",
    )


# fsync counts are cluster-wide: three nodes each fsync every stream.
@finding("batching amortizes fsyncs", "fsyncs per message fall with the batch")
def _amortized(rows):
    per_message = [r["fsyncs_per_message"] for r in rows]
    return per_message == sorted(per_message, reverse=True), " -> ".join(
        f"{n:.2f}" for n in per_message
    )


@finding(
    "batch 1 fsyncs every message at every node",
    ">= 2.9 fsyncs per message",
    kind="exact",
)
def _batch_one(rows):
    return rows[0]["fsyncs_per_message"] >= 2.9, f"{rows[0]['fsyncs_per_message']:.2f}"


@finding("batch 64 amortizes", "< 0.5 fsyncs per message", kind="exact")
def _batch_large(rows):
    return rows[-1]["fsyncs_per_message"] < 0.5, f"{rows[-1]['fsyncs_per_message']:.2f}"


@finding("at the price of persisted-stability latency", "batch 1 mean <= batch 64 mean")
def _latency_price(rows):
    small, large = rows[0]["mean_ms"], rows[-1]["mean_ms"]
    return small <= large, f"{small:.1f} vs {large:.1f} ms"


DURABILITY = Experiment(
    name="durability",
    help="group-commit batch size vs persisted-stability latency",
    run=run_group_commit,
    args=(),
    scales={
        "report": {"messages": 200},
        "default": {"messages": 200},
        "full": {"messages": 1000},
    },
    render=_render_durability,
    expectations=(_amortized, _batch_one, _batch_large, _latency_price),
)


def _render_chaos(reports) -> str:
    table = format_table(
        [
            "seed", "events", "virtual s", "checks", "checks/s", "monitor evts",
            "releases", "replayed", "violations",
        ],
        [
            (
                r["seed"],
                len(r["fired"]),
                f"{r['virtual_end_s']:.1f}",
                r["invariant_checks"],
                f"{r['checks_per_s']:.0f}",
                r["monitor_events"],
                r["releases_checked"],
                int(r["cluster_totals"]["replayed_chunks"]),
                len(r["violations"]),
            )
            for r in reports
        ],
        title="Chaos harness: invariant-check throughput per seeded run",
    )
    totals = reports[0]["cluster_totals"]
    counters = format_counters(
        {
            key: int(totals[key])
            for key in (
                "degradations",
                "reinclusions",
                "transport_suspensions",
                "transport_retransmissions",
                "duplicates_dropped",
                "replayed_chunks",
            )
        },
        title=f"fault-path counters, seed {reports[0]['seed']}",
    )
    return table + "\n" + counters


@finding("no safety invariant is violated", "0 violations, every seed", kind="exact")
def _no_violation(reports):
    violations = [v for r in reports for v in r["violations"]]
    if violations:
        return False, f"{len(violations)}: {violations[0]}"
    return True, "0"


@finding("the schedule fires", ">= 10 faults per run", kind="exact")
def _faults_fire(reports):
    fired = [len(r["fired"]) for r in reports]
    return min(fired) >= 10, ", ".join(map(str, fired))


@finding("no waiter times out", "0 waiter timeouts", kind="exact")
def _no_timeout(reports):
    timeouts = sum(r["waiter_timeouts"] for r in reports)
    return timeouts == 0, f"{timeouts}"


CHAOS = Experiment(
    name="chaos",
    help="seeded chaos runs under the full invariant checker",
    run=run_chaos_seeds,
    args=(),
    scales={
        "report": {"events": 10, "seeds": (0,)},
        "default": {"events": 14},
        "full": {"events": 30},
    },
    render=_render_chaos,
    expectations=(_no_violation, _faults_fire, _no_timeout),
)
