"""Sharding drivers: partial replication against the unsharded control
plane, live rebalancing under load, and a regional flash crowd with and
without the closed loop (none of them a paper figure), each declared as
an :class:`~repro.bench.paper.Experiment` at the end of the module.  The
last two build nothing of their own: each is a run of its chaos scenario
(:mod:`repro.chaos.rebalance`, :mod:`repro.chaos.overload`), with that
scenario's constants, on a handcrafted schedule."""

from __future__ import annotations

import time
from typing import ClassVar, Dict, List, Sequence, Tuple

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_table
from repro.bench.runners.extensions import _no_violation
from repro.bench.runners.kit import build_cluster, build_network, drain
from repro.chaos.harness import ChaosHarness, Scenario, run_chaos
from repro.chaos.overload import (
    ADMIT_RATE_PER_S,
    CROWD_MULTIPLIER,
    PAYLOAD_BYTES,
    SLA_KEY,
    TARGET_P99_S,
    WAITER_EVERY,
    OverloadChaosConfig,
    OverloadScenario,
)
from repro.chaos.rebalance import RebalanceChaosConfig
from repro.chaos.schedule import ChaosEvent
from repro.core.slacontrol import INTERVAL_S, _HistogramWindow, _WindowStats
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.sim.rng import RngRegistry
from repro.transport.messages import SyntheticPayload

# ---------------------------------------------------------------------------
# Shard scaling: partial replication vs the unsharded control plane.
# ---------------------------------------------------------------------------


def _shard_workload(shard_map, keys: int, messages: int, seed: int):
    """(sender, key) per message: writes route to the key's primary
    owner, so the sharded and unsharded runs use identical senders."""
    rng = RngRegistry(seed).stream("shard-scaling")
    workload = []
    for _ in range(messages):
        key = rng.randrange(keys)
        workload.append((shard_map.primary(shard_map.shard_of(key)), key))
    return workload


def run_shard_scaling(
    nodes: int = 8,
    shard_count: int = 64,
    replication: int = 2,
    keys_grid: Sequence[int] = (10_000, 1_000_000),
    messages: int = 240,
    payload_bytes: int = 512,
    send_interval_s: float = 0.002,
    control_interval_s: float = 0.02,
    seed: int = 0,
) -> dict:
    """The sharded-ACK-table experiment: the same keyed write workload
    through a partially replicated cluster and through the classic
    full-fan-out cluster, at growing key-space sizes.

    What the rows show:

    - ``control_reduction`` / ``payload_reduction`` — cluster-wide
      control-plane and data-plane bytes, unsharded over sharded.  With
      ``nodes`` peers and owner sets of ``replication``, every message
      fans out to ``replication - 1`` receivers instead of ``nodes - 1``
      and every ACK report reaches only co-owners, so the reduction
      grows with the cluster, not the workload.  The control baseline is
      the full fan-out — an unsharded cluster in which every node
      observes every stream; ``control_reduction_vs_demand`` is the same
      ratio against an unsharded cluster in which, as in the sharded
      one, nobody observes a stream but its origin, so a report goes to
      one node either way and what is left of the saving is the
      heartbeats' ``nodes - 1`` against ``replication - 1`` peers.
    - ``sharded_max_cells`` vs ``keys`` — per-node ACK-table cells are a
      function of *owned shards*, not of the key space: the column stays
      flat from thousands to millions of keys.
    - ``frontier_lag`` gauges stay per shard
      (``frontier_lag.s<shard>.*``); the row carries the gauge count and
      the worst residual lag at convergence.
    """
    from repro.core.membership import ShardMap
    from repro.core.sharding import build_sharded_cluster

    node_names = [f"n{i}" for i in range(nodes)]
    topo = Topology.uniform(
        {name: f"az{i % 4}" for i, name in enumerate(node_names)},
        NetemSpec(latency_ms=10, rate_mbit=100),
    )
    shard_map = ShardMap(node_names, shard_count, replication)
    rows = []
    for keys in keys_grid:
        workload = _shard_workload(shard_map, keys, messages, seed)
        end_s = send_interval_s * messages + 2.0
        row = {"keys": keys, "messages": messages}

        def run_to_convergence(prefix: str, sim, cluster, converged) -> list:
            """Run, drain, and book wall time, convergence and the wire
            bytes under ``prefix``; returns every node's stats."""
            started = time.perf_counter()
            sim.run(until=end_s)
            row[f"{prefix}_converged"] = drain(sim, converged)
            row[f"{prefix}_elapsed_s"] = time.perf_counter() - started
            stats = [node.stats() for node in cluster]
            row[f"{prefix}_control_bytes"] = sum(
                s["strategy.bytes_sent"] for s in stats
            )
            row[f"{prefix}_payload_bytes"] = sum(
                s["dataplane.payload_bytes_sent"] for s in stats
            )
            return stats

        # -- sharded run ---------------------------------------------------
        sim, net = build_network(topo, seed)
        cluster = build_sharded_cluster(
            net,
            {"all": "MIN($SHARDWNODES - $MYWNODE)"},
            shard_count=shard_count,
            shard_replication=replication,
            control_interval_s=control_interval_s,
        )
        counts: Dict[Tuple[str, int], int] = {}
        for i, (sender, key) in enumerate(workload):
            shard = shard_map.shard_of(key)
            counts[(sender, shard)] = counts.get((sender, shard), 0) + 1
            sim.call_at(
                send_interval_s * (i + 1),
                lambda s=sender, k=key: cluster[s].send(
                    SyntheticPayload(payload_bytes), key=k
                ),
            )

        def sharded_converged():
            return all(
                cluster[owner].get_stability_frontier("all", origin, shard=shard)
                >= count
                for (origin, shard), count in counts.items()
                for owner in shard_map.owners(shard)
            )

        stats = run_to_convergence("sharded", sim, cluster, sharded_converged)
        cells = [node.ack_table_cells() for node in cluster]
        row["sharded_max_cells"] = max(cells)
        row["sharded_total_cells"] = sum(cells)
        lag_values = [
            value
            for s in stats
            for key, value in s.items()
            if key.startswith("frontier_lag.s")
        ]
        row["frontier_lag_gauges"] = len(lag_values)
        row["frontier_lag_max"] = max(lag_values) if lag_values else 0
        cluster.close()

        # -- unsharded baselines -------------------------------------------
        # "unsharded": every node observes every stream (a monitor each),
        # the classic full fan-out.  "unsharded_demand": nobody observes
        # anything but its own stream until the convergence check asks,
        # so reports follow demand as they do in the sharded run.
        for prefix, observe_everything in (
            ("unsharded", True),
            ("unsharded_demand", False),
        ):
            sim, net = build_network(topo, seed)
            baseline = build_cluster(
                net,
                {"all": "MIN($ALLWNODES - $MYWNODE)"},
                control_interval_s=control_interval_s,
            )
            if observe_everything:
                for node in baseline:
                    node.monitor_stability_frontier("all", lambda *_advance: None)
            totals: Dict[str, int] = {}
            for i, (sender, _key) in enumerate(workload):
                totals[sender] = totals.get(sender, 0) + 1
                sim.call_at(
                    send_interval_s * (i + 1),
                    lambda s=sender: baseline[s].send(
                        SyntheticPayload(payload_bytes)
                    ),
                )

            def baseline_converged():
                return all(
                    node.get_stability_frontier("all", origin) >= count
                    for origin, count in totals.items()
                    for node in baseline
                )

            run_to_convergence(prefix, sim, baseline, baseline_converged)
            row[f"{prefix}_max_cells"] = max(
                len(node.tables)
                * node.config.node_count()
                * len(node.config.type_names())
                for node in baseline
            )
            baseline.close()

        row["control_reduction"] = row["unsharded_control_bytes"] / max(
            row["sharded_control_bytes"], 1
        )
        row["control_reduction_vs_demand"] = row[
            "unsharded_demand_control_bytes"
        ] / max(row["sharded_control_bytes"], 1)
        row["payload_reduction"] = row["unsharded_payload_bytes"] / max(
            row["sharded_payload_bytes"], 1
        )
        rows.append(row)
    return {
        "config": {
            "nodes": nodes,
            "shard_count": shard_count,
            "replication": replication,
            "owners_per_shard": shard_map.owners_per_shard(),
            "messages": messages,
            "payload_bytes": payload_bytes,
            "seed": seed,
        },
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Live rebalancing and a regional flash crowd: each is its chaos scenario
# on a handcrafted schedule, its findings read from the harness report.
# ---------------------------------------------------------------------------


class _RebalanceBenchConfig(RebalanceChaosConfig):
    """Room to scale out and in: 8 members over the 2 AZs, 2 spare hosts."""

    nodes_per_az: ClassVar[int] = 4
    spare_hosts: ClassVar[int] = 2


def run_rebalance_bench(gap_s: float = 1.0) -> dict:
    """Live rebalancing under load: the rebalance chaos scenario (16
    shards x 2 owners, invariants 1–12) through 8 -> 10 -> 7 members, one
    membership op every ``gap_s``: both spares join, then one member of
    each AZ and the first joiner leave.  No crash, no partition: the
    seeded rebalance-chaos runs mix membership with faults, this run
    measures the churn alone.  The result is the harness report."""
    ops = (
        ("node_join", "s0"), ("node_join", "s1"),
        ("node_leave", "n01"), ("node_leave", "n11"), ("node_leave", "s0"),
    )
    schedule = [ChaosEvent(gap_s * i, op, (name,)) for i, (op, name) in enumerate(ops, 1)]
    return run_chaos(_RebalanceBenchConfig(), schedule)


class _FlashCrowdConfig(OverloadChaosConfig):
    """The overload scenario on a WAN the crowd congests.  Each origin
    reaches each peer over its own directed link, and a payload is 64–511
    bytes, 288 B on average.  A crowded node offers 10 x 10 msg/s, about
    29 KB/s on each outgoing link, against 0.15 Mbit/s = 18.75 KB/s; base
    traffic (10 msg/s, about 2.9 KB/s) and what admission lets through
    (ADMIT_RATE_PER_S = 25 msg/s, about 7.2 KB/s) fit."""

    link: ClassVar[NetemSpec] = NetemSpec(latency_ms=10, rate_mbit=0.15)


class _Undefended(OverloadScenario):
    """The baseline: no admission gate and no SLA controller, so every
    offer goes straight to ``send``."""

    def arm_node(self, node) -> None:
        Scenario.arm_node(self, node)  # policy and monitors only

    def send(self, name: str) -> None:
        node = self.cluster[name]
        seq = node.send(SyntheticPayload(self.harness.rng.randrange(64, PAYLOAD_BYTES)))
        self.checker.note_sent(name, seq)
        if seq % WAITER_EVERY == 0:
            self.harness.guard(node, seq, SLA_KEY)


class _UndefendedConfig(_FlashCrowdConfig):
    scenario: ClassVar[type] = _Undefended


def _crowd_run(config: OverloadChaosConfig, schedule: List[ChaosEvent]) -> dict:
    """One harness run of ``schedule``, a crowd and its end: the report,
    plus the cluster's p99 send->stable latency and oldest pending send
    under ``SLA_KEY``, sampled at the SLA controllers' own cadence."""
    harness = ChaosHarness(config, schedule)
    sim, nodes = harness.sim, list(harness.cluster)
    windows = [
        _HistogramWindow(node.registry.histogram(f"{node.stability.prefix}.{SLA_KEY}"))
        for node in nodes
    ]
    timeline: List[dict] = []

    def sample() -> None:
        sim.call_later(INTERVAL_S, sample)
        stats = [window.advance() for window in windows]
        p99 = _WindowStats(
            stats[0].bounds,
            [sum(counts) for counts in zip(*(s.counts for s in stats))],
            max(s.observed_max for s in stats),
        ).percentile(99)
        pending = max(node.stability.oldest_pending_age(SLA_KEY) for node in nodes)
        timeline.append({
            "t": round(sim.now, 3),
            "p99_s": round(p99, 4),
            "pending_s": round(pending, 4),
            "breach": p99 > TARGET_P99_S or pending > TARGET_P99_S,
        })

    sim.call_later(INTERVAL_S, sample)
    try:
        report = harness.run()
        drained = harness.scenario.quiescent()
        accepted = sum(harness.checker.sent_high().values())
    finally:
        harness.close()
    start = schedule[0].at
    crowd = [p for p in timeline if start <= p["t"] <= harness.traffic_end()]
    return {
        **report,
        "timeline": timeline,
        "accepted": accepted,
        "drained": drained,
        "steady_p99_s": max(p["p99_s"] for p in timeline if p["t"] < start),
        "peak_p99_s": max(p["p99_s"] for p in timeline),
        "peak_pending_s": max(p["pending_s"] for p in timeline),
        "breach_windows": sum(p["breach"] for p in crowd),
        "crowd_windows": len(crowd),
        "settle_s": report["settle_slices"] * config.settle_slice_s,
    }


def run_overload_bench(crowd_hold_s: float = 3.0) -> dict:
    """A 10x regional flash crowd, run twice through the overload chaos
    scenario on a narrow WAN (:class:`_FlashCrowdConfig`): as it is —
    admission control and an SLA controller at every node — and without
    either (:class:`_Undefended`, the baseline).  A sampled window
    breaches when its p99 or oldest pending send exceeds the scenario's
    ``TARGET_P99_S``.  The claim: the baseline blows the SLA for most of
    the crowd; the closed loop sheds a bounded amount at the edge, keeps
    every admitted message, relaxes the predicate and walks it back."""
    # The crowd hits az0 after 2 s of steady traffic.
    schedule = [
        ChaosEvent(2.0, "flash_crowd", ("az0",)),
        ChaosEvent(2.0 + crowd_hold_s, "flash_end", ()),
    ]
    return {
        "config": {
            "crowd_multiplier": CROWD_MULTIPLIER,
            "crowd_az": "az0",
            "target_p99_s": TARGET_P99_S,
            "admit_rate_per_s": ADMIT_RATE_PER_S,
            "payload_bytes": PAYLOAD_BYTES,
            "link_rate_mbit": _FlashCrowdConfig.link.rate_mbit,
        },
        "baseline": _crowd_run(_UndefendedConfig(), schedule),
        "controlled": _crowd_run(_FlashCrowdConfig(), schedule),
    }


# ---------------------------------------------------------------------------
# The declarations: printer, findings and scales per experiment.
# ---------------------------------------------------------------------------


def _render_shard_scaling(result) -> str:
    config = result["config"]
    return format_table(
        [
            "keys", "ctrl bytes (sharded)", "ctrl bytes (full)", "ctrl x",
            "ctrl x (vs demand)", "payload x", "cells/node (sharded)",
            "cells/node (full)", "lag gauges",
        ],
        [
            (
                r["keys"],
                r["sharded_control_bytes"],
                r["unsharded_control_bytes"],
                f"{r['control_reduction']:.1f}",
                f"{r['control_reduction_vs_demand']:.1f}",
                f"{r['payload_reduction']:.1f}",
                r["sharded_max_cells"],
                r["unsharded_max_cells"],
                r["frontier_lag_gauges"],
            )
            for r in result["rows"]
        ],
        title=(
            f"Partial replication ({config['shard_count']} shards x "
            f"{config['replication']} owners, {config['nodes']} nodes) vs full fan-out"
        ),
    )


@finding(
    "every run stabilizes the workload",
    "sharded and both unsharded baselines",
    kind="exact",
)
def _shards_converge(result):
    holds = all(
        r["sharded_converged"]
        and r["unsharded_converged"]
        and r["unsharded_demand_converged"]
        for r in result["rows"]
    )
    return holds, "converged" if holds else "not converged"


# The owner-set fan-out gives ~(nodes-1)/(replication-1) = 7x headroom at
# 8 nodes and 2 owners.
@finding(
    "partial replication cuts control and payload bytes",
    ">= 4x against the full fan-out, at every key-space size",
    kind="exact",
)
def _bytes_cut(result):
    rows = result["rows"]
    holds = all(
        r["control_reduction"] >= 4.0 and r["payload_reduction"] >= 4.0 for r in rows
    )
    measured = ", ".join(
        f"{r['control_reduction']:.1f}x / {r['payload_reduction']:.1f}x" for r in rows
    )
    return holds, measured


# Against an unsharded cluster whose reports follow demand too, a report
# has one reader either way; only the heartbeats' peer count differs.
@finding(
    "against demand-following reports only the heartbeats differ",
    "0 < the ratio vs demand < the ratio vs full fan-out",
)
def _vs_demand(result):
    rows = result["rows"]
    holds = all(
        0 < r["control_reduction_vs_demand"] < r["control_reduction"] for r in rows
    )
    return holds, ", ".join(f"{r['control_reduction_vs_demand']:.1f}x" for r in rows)


# Control state is a function of owned shards, never of keys.
@finding(
    "per-node ACK cells are flat across the key space",
    "identical at every key-space size",
    kind="exact",
)
def _cells_flat(result):
    cells = [r["sharded_max_cells"] for r in result["rows"]]
    return len(set(cells)) == 1, ", ".join(map(str, cells))


@finding("frontier lag is gauged per shard", "at least one lag gauge", kind="exact")
def _lag_gauged(result):
    gauges = [r["frontier_lag_gauges"] for r in result["rows"]]
    return all(n > 0 for n in gauges), ", ".join(map(str, gauges))


SHARD_SCALING = Experiment(
    name="shard_scaling",
    help="sharded ACK tables with partial replication vs full fan-out",
    run=run_shard_scaling,
    args=(),
    scales={
        "report": {"messages": 240},
        "default": {"messages": 240},
        "full": {"messages": 960},
    },
    render=_render_shard_scaling,
    expectations=(_shards_converge, _bytes_cut, _vs_demand, _cells_flat, _lag_gauged),
)


def _render_rebalance(report) -> str:
    members = [len(report["members_initial"])]
    unmoved = {epoch: f"{released}/{guarded}" for epoch, guarded, released in
               report["unmoved_waiters"]}
    rows = []
    for h in report["rebalances"]:
        members.append(members[-1] + (1 if h["kind"] == "join" else -1))
        rows.append((
            f"{h['kind']} {h['subject']}", h["new_epoch"], members[-1],
            f"{h['shards_moved']}/{h['shards_total']}", f"{h['latency_s']:.2f}",
            f"{h['handoff_bytes'] / 1024:.1f}", h["unsourced"],
            unmoved.get(h["new_epoch"], "0/0"),
        ))
    return format_table(
        [
            "op", "epoch", "members", "shards moved", "cutover lat (s)",
            "handoff KiB", "unsourced", "unmoved waiters released",
        ],
        rows,
        title=(
            f"Live rebalance under load ({report['shard_count']} shards x "
            f"{report['replication']} owners, {members[0]} -> {max(members)} -> "
            f"{members[-1]} nodes; {sum(report['messages_sent'].values())} messages, "
            f"{report['waiter_timeouts']} waiter timeouts)"
        ),
    )


@finding(
    "no safety invariant is violated", "0 violations of invariants 1-12", kind="exact"
)
def _rebalance_safe(report):
    return _no_violation.check([report])


# The harness audits replication at quiescence (invariant 11), after the
# last cutover; each cutover's owner sets are invariant 12's.
@finding(
    "replication is restored from real transfers",
    "0 unsourced rebuilds; each shard at its replication factor at the end",
    kind="exact",
)
def _replication_restored(report):
    unsourced = report["unsourced_shards"]
    holds = unsourced == 0 and not report["violations"]
    return holds, f"{unsourced} unsourced of {report['cutovers_checked']} cutovers"


@finding(
    "one cutover per membership op", "2 joins, 3 leaves; the epoch ends at 5",
    kind="exact",
)
def _one_cutover_per_op(report):
    kinds = [h["kind"] for h in report["rebalances"]]
    epoch = report["epoch_final"]
    holds = kinds == ["join"] * 2 + ["leave"] * 3 and epoch == 5
    joins, leaves = kinds.count("join"), kinds.count("leave")
    return holds, f"{joins} + {leaves} cutovers, epoch {epoch}"


# With 16 * 2 ownerships over 9-10 nodes a join wins far below half the
# shard space.
@finding("a join moves only the shards the joiner wins", "0 < moved < the shard count")
def _minimal_moves(report):
    moved = [h["shards_moved"] for h in report["rebalances"] if h["kind"] == "join"]
    return all(0 < n < report["shard_count"] for n in moved), ", ".join(map(str, moved))


# A waiter the scenario guarded, mid-handoff, on a shard the plan leaves
# alone: a stall there would be the handoff's collateral damage.
@finding(
    "unmoved shards keep stabilizing mid-handoff",
    "at every cutover, waiters on shards outside the plan; all released",
)
def _unmoved_stabilize(report):
    waiters = report["unmoved_waiters"]  # [cutover epoch, guarded, released]
    holds = len(waiters) == len(report["rebalances"]) and all(
        0 < released == guarded for _, guarded, released in waiters
    )
    return holds, ", ".join(f"{released}/{guarded}" for _, guarded, released in waiters)


# Per cutover, from the coordinator's history.
@finding("state moves over the wire", "handoff bytes at every cutover", kind="exact")
def _state_moves(report):
    handoff = [h["handoff_bytes"] for h in report["rebalances"]]
    return all(n > 0 for n in handoff), ", ".join(f"{n} B" for n in handoff)


REBALANCE = Experiment(
    name="rebalance",
    help="live shard rebalancing under load: scale out, then scale in",
    run=run_rebalance_bench,
    args=(),
    scales={
        "report": {"gap_s": 1.0}, "default": {"gap_s": 1.0}, "full": {"gap_s": 3.0},
    },
    render=_render_rebalance,
    expectations=(
        _rebalance_safe, _replication_restored, _one_cutover_per_op,
        _minimal_moves, _unmoved_stabilize, _state_moves,
    ),
)


def _render_flash_crowd(result) -> str:
    config = result["config"]
    rows = []
    for mode in ("baseline", "controlled"):
        run, admission = result[mode], result[mode]["admission"]
        rows.append((
            mode, admission.get("admission.offered", run["accepted"]), run["accepted"],
            admission.get("admission.shed", 0), f"{run['steady_p99_s']:.3f}",
            f"{run['peak_p99_s']:.3f}", f"{run['peak_pending_s']:.3f}",
            f"{run['breach_windows']}/{run['crowd_windows']}", f"{run['settle_s']:.0f}",
        ))
    return format_table(
        [
            "mode", "offered", "accepted", "shed", "steady p99 (s)", "peak p99 (s)",
            "peak pending (s)", "breach windows", "settle (s)",
        ],
        rows,
        title=(
            f"{config['crowd_multiplier']:.0f}x flash crowd in {config['crowd_az']} "
            f"({result['controlled']['nodes']} nodes, "
            f"{config['link_rate_mbit']} Mbit/s links, "
            f"admission {config['admit_rate_per_s']:.0f} msg/s, "
            f"target p99 {config['target_p99_s']}s)"
        ),
    )


@finding(
    "no safety invariant is violated", "0 violations of invariants 1-14", kind="exact"
)
def _flash_crowd_safe(result):
    return _no_violation.check([result["baseline"], result["controlled"]])


@finding("both runs drain", "every admitted message stabilizes", kind="exact")
def _drained(result):
    drained = [result[mode]["drained"] for mode in ("baseline", "controlled")]
    return all(drained), f"baseline {drained[0]}, controlled {drained[1]}"


@finding(
    "the baseline blows the SLA for most of the crowd",
    "peak p99 > 2x target; breaches in over half the crowd windows",
)
def _baseline_breaches(result):
    baseline, target = result["baseline"], result["config"]["target_p99_s"]
    holds = (
        baseline["peak_p99_s"] > 2 * target
        and baseline["breach_windows"] > baseline["crowd_windows"] // 2
    )
    return holds, (
        f"peak {baseline['peak_p99_s']:.3f} s, "
        f"{baseline['breach_windows']}/{baseline['crowd_windows']} windows"
    )


# Only the reaction windows (if any) stay above target.
@finding(
    "the closed loop holds the SLA",
    "peak p99 under 1/5 of the baseline's; at most 1/3 of its breaches",
)
def _controlled_holds(result):
    baseline, controlled = result["baseline"], result["controlled"]
    holds = (
        controlled["peak_p99_s"] < baseline["peak_p99_s"] / 5
        and controlled["breach_windows"] <= baseline["breach_windows"] // 3
    )
    return holds, (
        f"peak {controlled['peak_p99_s']:.3f} s, "
        f"{controlled['breach_windows']} breach windows"
    )


@finding(
    "shedding is explicit, bounded, and never of an admitted message",
    "0 admitted shed; 0 < shed < offered", kind="exact",
)
def _bounded_shedding(result):
    admission = result["controlled"]["admission"]
    shed, offered = admission["admission.shed"], admission["admission.offered"]
    holds = admission["admission.admitted_shed"] == 0 and 0 < shed < offered
    return holds, (
        f"{admission['admission.admitted_shed']:.0f} admitted shed, "
        f"{shed:.0f} of {offered:.0f} shed"
    )


@finding(
    "the controllers react, then walk all the way back",
    ">= 1 degrade step; every predicate restored", kind="exact",
)
def _react_and_restore(result):
    steps, restored = (result["controlled"][k] for k in ("max_degrade_steps", "restored"))
    return steps >= 1 and restored, f"{steps:.0f} steps, restored {restored}"


FLASH_CROWD = Experiment(
    name="flash_crowd",
    help="a 10x regional flash crowd, closed loop vs none",
    run=run_overload_bench,
    args=(),
    scales={
        "report": {"crowd_hold_s": 3.0}, "default": {"crowd_hold_s": 3.0},
        "full": {"crowd_hold_s": 6.0},
    },
    render=_render_flash_crowd,
    expectations=(
        _flash_crowd_safe, _drained, _baseline_breaches, _controlled_holds,
        _bounded_shedding, _react_and_restore,
    ),
)
