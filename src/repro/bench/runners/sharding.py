"""Sharding drivers: partial replication against the unsharded control
plane, live rebalancing under load, and a regional flash crowd with and
without the closed loop (none of them a paper figure), each declared as
an :class:`~repro.bench.paper.Experiment` at the end of the module."""

from __future__ import annotations

import math
import time
from typing import Dict, Sequence, Tuple

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_table
from repro.bench.runners.kit import build_cluster, build_network, drain
from repro.core import StabilizerConfig
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.obs.catalogue import merge
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


def run_rebalance_bench(
    nodes: int = 8,
    joins: Sequence[str] = ("j0", "j1"),
    leaves: Sequence[str] = ("n1", "n3", "j0"),
    shard_count: int = 64,
    replication: int = 2,
    payload_bytes: int = 256,
    pump_shards: int = 2,
    slice_s: float = 0.05,
    control_interval_s: float = 0.02,
    settle_slices: int = 1200,
) -> dict:
    """Live rebalancing under load: scale out, then scale in.

    An ``nodes``-member cluster (2 AZs) carries continuous traffic while
    the membership walks ``nodes -> nodes + len(joins) -> final`` via a
    :class:`~repro.core.rebalance.RebalanceCoordinator`.  Each phase
    records:

    - per-cutover latency (freeze-to-cutover, from the coordinator's
      history) and the number of shards that moved — minimality is the
      headline: only the shards the joiner wins / the leaver owned;
    - handoff bytes and transfer retries (coordinator metric deltas);
    - frontier disturbance — a strict (every-owner) ``waitfor`` probe on
      an *unmoved* shard issued while handoffs are in flight, against
      the same probe at steady state: collateral stall on shards the
      plan never touched;
    - a replication audit after every cutover: each shard must have
      exactly ``replication`` live owners with built stacks.
    """
    from repro.core.rebalance import RebalanceCoordinator
    from repro.core.sharding import ShardedCluster

    members = [f"n{i}" for i in range(nodes)]
    # Members first, then the joiners' hosts, each dealt over the 2 AZs.
    topo = Topology.uniform(
        {
            name: f"az{i % 2}"
            for names in (members, joins)
            for i, name in enumerate(names)
        },
        NetemSpec(latency_ms=5, rate_mbit=200),
    )
    sim, net = build_network(topo)
    config = StabilizerConfig(
        node_names=members,
        groups={
            az: [n for i, n in enumerate(members) if i % 2 == int(az[2:])]
            for az in ("az0", "az1")
        },
        local=members[0],
        predicates={
            "all": "MIN($SHARDWNODES - $MYWNODE)",
            "any": "MAX($SHARDWNODES - $MYWNODE)",
        },
        shard_count=shard_count,
        shard_replication=replication,
        control_interval_s=control_interval_s,
        failure_timeout_s=2.0,
        durability=False,
    )
    cluster = ShardedCluster(net, config)
    coordinator = RebalanceCoordinator(
        cluster, drain_timeout_s=2.0, transfer_timeout_s=4.0
    )
    sent = 0

    def pump() -> None:
        nonlocal sent
        for node in cluster:
            shards = [
                s for s in node.shards if s not in node.frozen_shards()
            ]
            for shard in shards[:pump_shards]:
                node.send(SyntheticPayload(payload_bytes), shard=shard)
                sent += 1

    def probe(shard: str = None) -> float:
        """Strict-stability latency of one message on ``shard`` (or the
        lowest live shard): send, waitfor every owner, measure."""
        if shard is None:
            shard = min(
                s
                for s in range(shard_count)
                if cluster.shard_map.primary(s) in cluster.nodes
                and s in cluster.nodes[cluster.shard_map.primary(s)].shards
            )
        owner = cluster.shard_map.primary(shard)
        node = cluster.nodes[owner]
        if shard not in node.shards or shard in node.frozen_shards():
            return float("nan")
        started = sim.now
        seq = node.send(SyntheticPayload(payload_bytes), shard=shard)
        event = node.waitfor(seq, "all", shard=shard, timeout_s=60.0)
        sim.run_until_triggered(event)
        if not event.ok:
            return float("inf")
        return sim.now - started

    def settle() -> None:
        for _ in range(settle_slices):
            if coordinator.idle:
                return
            pump()
            sim.run(until=sim.now + slice_s)
        raise RuntimeError(f"rebalance stuck in phase {coordinator.phase!r}")

    def audit_replication() -> bool:
        shard_map = cluster.shard_map
        for shard in range(shard_count):
            owners = set(shard_map.owners(shard))
            if len(owners) != replication:
                return False
            for owner in owners:
                if shard not in cluster.nodes[owner].shards:
                    return False
        return True

    def run_phase(name: str, ops: Sequence[Tuple[str, str]]) -> dict:
        nonlocal sent
        before = coordinator.stats()
        history_mark = len(coordinator.history)
        sent_mark = sent
        started = sim.now
        wall = time.perf_counter()
        moved: set = set()
        for kind, subject in ops:
            if kind == "join":
                coordinator.node_join(subject)
            else:
                coordinator.node_leave(subject)
        plan = coordinator.active_plan
        if plan is not None:
            moved = set(plan.moved_shards())
        # Collateral disturbance: strict stability on a shard the plan
        # does not touch, measured while handoffs are in flight.
        unmoved = next(
            (
                s
                for s in range(shard_count)
                if s not in moved
                and cluster.shard_map.primary(s) in cluster.nodes
                and s
                in cluster.nodes[cluster.shard_map.primary(s)].shards
            ),
            None,
        )
        disturbance = probe(unmoved) if ops and unmoved is not None else None
        settle()
        after = coordinator.stats()
        cutovers = [
            {
                "kind": h["kind"],
                "subject": h["subject"],
                "shards_moved": h["shards_moved"],
                "latency_s": h["latency_s"],
                "unsourced": h["unsourced"],
            }
            for h in coordinator.history[history_mark:]
        ]
        return {
            "phase": name,
            "ops": [f"{kind}:{subject}" for kind, subject in ops],
            "members": len(cluster.nodes),
            "sim_duration_s": sim.now - started,
            "elapsed_s": time.perf_counter() - wall,
            "messages_sent": sent - sent_mark,
            "cutovers": cutovers,
            "handoff_bytes": after.get("rebalance.handoff_bytes", 0)
            - before.get("rebalance.handoff_bytes", 0),
            "transfer_retries": after.get("rebalance.transfer_retries", 0)
            - before.get("rebalance.transfer_retries", 0),
            "drain_timeouts": after.get("rebalance.drain_timeouts", 0)
            - before.get("rebalance.drain_timeouts", 0),
            "probe_disturbance_s": disturbance,
            "probe_after_s": probe(),
            "replication_restored": audit_replication(),
            "epoch": cluster.shard_map.epoch,
        }

    phases = []
    # Warm-up: traffic only, baseline probe.
    for _ in range(20):
        pump()
        sim.run(until=sim.now + slice_s)
    phases.append(run_phase("steady", []))
    phases.append(run_phase("scale-out", [("join", j) for j in joins]))
    phases.append(run_phase("scale-in", [("leave", l) for l in leaves]))
    result = {
        "config": {
            "nodes": nodes,
            "joins": list(joins),
            "leaves": list(leaves),
            "shard_count": shard_count,
            "replication": replication,
            "payload_bytes": payload_bytes,
        },
        "phases": phases,
        "final_members": sorted(cluster.nodes),
        "final_epoch": cluster.shard_map.epoch,
        "messages_sent": sent,
    }
    coordinator.close()
    cluster.close()
    return result


# ---------------------------------------------------------------------------
# Overload: a regional flash crowd, closed loop vs. no controller.
# ---------------------------------------------------------------------------

#: The settle phase samples the SLA windows once per slice of this length.
SETTLE_SLICE_S = 2.0


def run_overload_bench(
    nodes: int = 8,
    azs: int = 4,
    shard_count: int = 8,
    replication: int = 3,
    base_interval_s: float = 0.08,
    payload_bytes: int = 2048,
    link_rate_mbit: float = 1.0,
    crowd_multiplier: float = 10.0,
    crowd_az: str = "az0",
    crowd_start_s: float = 2.0,
    crowd_ramp_s: float = 0.5,
    crowd_hold_s: float = 3.0,
    duration_s: float = 10.0,
    target_p99_s: float = 0.4,
    admit_rate_per_s: float = 25.0,
    sample_interval_s: float = 0.25,
    control_interval_s: float = 0.01,
    max_settle_s: float = 60.0,
    seed: int = 0,
) -> dict:
    """A 10x regional flash crowd through a partially replicated
    cluster, run twice: without any defense (the baseline — ``send``
    straight into the buffers) and with the full closed loop (admission
    control in front, one :class:`~repro.core.slacontrol.SlaController`
    per shard stack behind).

    Both runs sample the *windowed* p99 send->stable latency and the
    oldest-pending age every ``sample_interval_s``; a sample breaches
    when either exceeds ``target_p99_s``.  The claim the bench guards:
    the baseline blows the SLA for the duration of the crowd, the
    closed loop sheds a bounded amount at the edge, keeps every admitted
    message, relaxes the predicate, and walks it back — so its breach
    count stays a fraction of the baseline's.
    """
    from repro.core.admission import QUEUE_LIMIT
    from repro.core.slacontrol import SlaController, _HistogramWindow, _WindowStats
    from repro.core.sharding import build_sharded_cluster
    from repro.errors import BackpressureError
    from repro.workloads.rates import FlashCrowdShape

    shape = FlashCrowdShape(
        base_rate=1.0,
        peak_rate=crowd_multiplier,
        t0=crowd_start_s,
        ramp_s=crowd_ramp_s,
        hold_s=crowd_hold_s,
        decay_s=crowd_ramp_s,
    )
    traffic_end = duration_s
    topo = Topology.uniform(
        {f"n{i}": f"az{i % azs}" for i in range(nodes)},
        # A deliberately narrow WAN: the crowd must be able to congest it.
        NetemSpec(latency_ms=30, rate_mbit=link_rate_mbit),
    )

    def run_mode(controlled: bool) -> dict:
        sim, net = build_network(topo, seed)
        cluster = build_sharded_cluster(
            net,
            {"sla": "MIN($ALLWNODES - $MYWNODE)"},
            shard_count=shard_count,
            shard_replication=replication,
            control_interval_s=control_interval_s,
            window_bytes=8 * 1024,
            frame_bytes=2 * 1024,
            frame_delay_ms=2.0,
        )
        crowd_nodes = {
            name
            for name in net.topology.node_names()
            if net.topology.groups()[crowd_az].count(name)
        }
        counters = {
            "offered": 0, "sent": 0, "queued": 0,
            "shed": 0, "backpressure": 0,
        }
        admission = {}
        sla = {}
        if controlled:
            for name in cluster.nodes:
                node = cluster[name]
                admission[name] = node.set_admission(rate_per_s=admit_rate_per_s)
                sla[name] = SlaController.install(node, "sla", target_p99_s)

        def stacks():
            for name in cluster.nodes:
                for shard, inner in sorted(cluster[name].shards.items()):
                    yield name, shard, inner

        windows = {
            (name, shard): _HistogramWindow(
                inner.registry.histogram(f"{inner.stability.prefix}.sla")
            )
            for name, shard, inner in stacks()
        }

        def send_tick(name: str, state: dict) -> None:
            if sim.now >= traffic_end:
                return
            multiplier = shape.rate_at(sim.now) if name in crowd_nodes else 1.0
            sim.call_later(
                base_interval_s / multiplier, send_tick, name, state
            )
            node = cluster[name]
            shard = node.owned_shards[state["i"] % len(node.owned_shards)]
            state["i"] += 1
            counters["offered"] += 1
            payload = SyntheticPayload(payload_bytes)
            if controlled:
                outcome = admission[name].submit(payload, shard=shard)
                counters[outcome.status] += 1
            else:
                try:
                    node.send(payload, shard=shard)
                    counters["sent"] += 1
                except BackpressureError:
                    counters["backpressure"] += 1

        timeline = []

        def sample() -> dict:
            deltas = None
            bounds = None
            observed_max = 0.0
            pending = 0.0
            for name, shard, inner in stacks():
                stats = windows[(name, shard)].advance()
                if deltas is None:
                    bounds = stats.bounds
                    deltas = [0] * len(stats.counts)
                for i, c in enumerate(stats.counts):
                    deltas[i] += c
                observed_max = max(observed_max, stats.observed_max)
                pending = max(
                    pending, inner.stability.oldest_pending_age("sla")
                )
            combined = _WindowStats(bounds, deltas, observed_max)
            p99 = combined.percentile(99) if combined.count else 0.0
            point = {
                "t": round(sim.now, 3),
                "samples": combined.count,
                "p99_s": round(p99, 4),
                "pending_s": round(pending, 4),
                "breach": p99 > target_p99_s or pending > target_p99_s,
            }
            timeline.append(point)
            return point

        def sample_tick() -> None:
            if sim.now >= traffic_end:
                return
            sim.call_later(sample_interval_s, sample_tick)
            sample()

        for name in cluster.nodes:
            sim.call_later(base_interval_s, send_tick, name, {"i": 0})
        sim.call_later(sample_interval_s, sample_tick)
        sim.run(until=traffic_end)

        # Settle: drain queues and pending sends, let controllers restore.
        def quiescent() -> bool:
            if any(c.queue_depth() for c in admission.values()):
                return False
            if controlled and not all(
                ctrl.restored()
                for per_shard in sla.values()
                for ctrl in per_shard.values()
            ):
                return False
            return all(
                inner.stability.oldest_pending_age("sla") == 0.0
                for _, _, inner in stacks()
            )

        settled_from = len(timeline)
        drained = drain(
            sim, quiescent, slice_s=SETTLE_SLICE_S,
            max_slices=math.ceil(max_settle_s / SETTLE_SLICE_S), on_slice=sample,
        )
        settle_s = SETTLE_SLICE_S * (len(timeline) - settled_from)

        crowd_points = [
            p for p in timeline if crowd_start_s <= p["t"] <= traffic_end
        ]
        result = {
            "mode": "controlled" if controlled else "baseline",
            "counters": dict(counters),
            "timeline": timeline,
            "steady_p99_s": max(
                (p["p99_s"] for p in timeline if p["t"] < crowd_start_s),
                default=0.0,
            ),
            "peak_p99_s": max(p["p99_s"] for p in timeline),
            "peak_pending_s": max(p["pending_s"] for p in timeline),
            "breach_windows": sum(p["breach"] for p in crowd_points),
            "crowd_windows": len(crowd_points),
            "settle_s": settle_s,
            "drained": drained,
            "virtual_end_s": round(sim.now, 3),
        }
        if controlled:
            result["admission"] = merge(
                [controller.stats() for controller in admission.values()]
            )
            result["max_degrade_steps"] = max(
                ctrl.stats()["slacontrol.degrade_steps"]
                for per_shard in sla.values()
                for ctrl in per_shard.values()
            )
            result["restored"] = all(
                ctrl.restored()
                for per_shard in sla.values()
                for ctrl in per_shard.values()
            )
            for per_shard in sla.values():
                for ctrl in per_shard.values():
                    ctrl.close()
        cluster.close()
        return result

    return {
        "config": {
            "nodes": nodes,
            "azs": azs,
            "shard_count": shard_count,
            "replication": replication,
            "crowd_multiplier": crowd_multiplier,
            "crowd_az": crowd_az,
            "target_p99_s": target_p99_s,
            "admit_rate_per_s": admit_rate_per_s,
            "queue_limit": QUEUE_LIMIT,
            "payload_bytes": payload_bytes,
            "seed": seed,
        },
        "baseline": run_mode(controlled=False),
        "controlled": run_mode(controlled=True),
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


def _render_rebalance(result) -> str:
    config = result["config"]
    return format_table(
        [
            "phase", "members", "cutovers", "shards moved", "cutover lat (s)",
            "handoff KiB", "retries", "probe during (s)", "probe after (s)", "repl ok",
        ],
        [
            (
                p["phase"],
                p["members"],
                len(p["cutovers"]),
                sum(c["shards_moved"] for c in p["cutovers"]),
                "/".join(f"{c['latency_s']:.2f}" for c in p["cutovers"]) or "-",
                f"{p['handoff_bytes'] / 1024:.1f}",
                p["transfer_retries"],
                "-"
                if p["probe_disturbance_s"] is None
                else f"{p['probe_disturbance_s']:.3f}",
                f"{p['probe_after_s']:.3f}",
                p["replication_restored"],
            )
            for p in result["phases"]
        ],
        title=(
            f"Live rebalance under load ({config['shard_count']} shards x "
            f"{config['replication']} owners, {config['nodes']} -> "
            f"{config['nodes'] + len(config['joins'])} -> "
            f"{len(result['final_members'])} nodes)"
        ),
    )


@finding(
    "every phase restores replication from real transfers",
    "each shard at its replication factor, 0 unsourced rebuilds",
    kind="exact",
)
def _replication_restored(result):
    phases = result["phases"]
    holds = all(
        p["replication_restored"] and all(c["unsourced"] == 0 for c in p["cutovers"])
        for p in phases
    )
    return holds, ", ".join(f"{p['phase']}: {p['replication_restored']}" for p in phases)


@finding(
    "one cutover per membership op",
    "2 joins, 3 leaves; the epoch ends at 5",
    kind="exact",
)
def _one_cutover_per_op(result):
    _steady, out, down = result["phases"]
    holds = (
        len(out["cutovers"]) == 2
        and len(down["cutovers"]) == 3
        and result["final_epoch"] == 5
    )
    return holds, (
        f"{len(out['cutovers'])} + {len(down['cutovers'])} cutovers, "
        f"epoch {result['final_epoch']}"
    )


# With 64 * 2 ownerships over 9-10 nodes a join wins far below half the
# shard space.
@finding("a join moves only the shards the joiner wins", "0 < moved < the shard count")
def _minimal_moves(result):
    moved = [c["shards_moved"] for c in result["phases"][1]["cutovers"]]
    shard_count = result["config"]["shard_count"]
    return all(0 < n < shard_count for n in moved), ", ".join(map(str, moved))


@finding(
    "unmoved shards keep stabilizing mid-handoff",
    "the disturbance probe completes in both membership phases",
)
def _unmoved_stabilize(result):
    steady, out, down = result["phases"]
    probes = [p["probe_disturbance_s"] for p in (out, down)]
    holds = (
        all(probe is not None and math.isfinite(probe) for probe in probes)
        and all(math.isfinite(p["probe_after_s"]) for p in (steady, out, down))
    )
    return holds, ", ".join(
        "-" if probe is None else f"{probe:.3f} s" for probe in probes
    )


@finding(
    "state moves over the wire", "handoff bytes in both membership phases", kind="exact"
)
def _state_moves(result):
    handoff = [p["handoff_bytes"] for p in result["phases"][1:]]
    return all(n > 0 for n in handoff), ", ".join(f"{n} B" for n in handoff)


REBALANCE = Experiment(
    name="rebalance",
    help="live shard rebalancing under load: scale out, then scale in",
    run=run_rebalance_bench,
    args=(),
    scales={
        "report": {"pump_shards": 2},
        "default": {"pump_shards": 2},
        "full": {"pump_shards": 4},
    },
    render=_render_rebalance,
    expectations=(
        _replication_restored, _one_cutover_per_op, _minimal_moves,
        _unmoved_stabilize, _state_moves,
    ),
)


def _render_flash_crowd(result) -> str:
    config = result["config"]
    rows = []
    for mode in (result["baseline"], result["controlled"]):
        counters = mode["counters"]
        rows.append(
            (
                mode["mode"],
                counters["offered"],
                counters["sent"] + counters["queued"],
                counters["shed"],
                f"{mode['steady_p99_s']:.3f}",
                f"{mode['peak_p99_s']:.3f}",
                f"{mode['peak_pending_s']:.3f}",
                f"{mode['breach_windows']}/{mode['crowd_windows']}",
                f"{mode['settle_s']:.0f}",
            )
        )
    return format_table(
        [
            "mode", "offered", "accepted", "shed", "steady p99 (s)", "peak p99 (s)",
            "peak pending (s)", "breach windows", "settle (s)",
        ],
        rows,
        title=(
            f"{config['crowd_multiplier']:.0f}x flash crowd in "
            f"{config['crowd_az']} ({config['nodes']} nodes, "
            f"{config['shard_count']} shards x "
            f"{config['replication']} owners, "
            f"target p99 {config['target_p99_s']}s)"
        ),
    )


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
    "0 admitted shed; 0 < shed < offered",
    kind="exact",
)
def _bounded_shedding(result):
    controlled = result["controlled"]
    admission = controlled["admission"]
    shed, offered = admission["admission.shed"], controlled["counters"]["offered"]
    holds = admission["admission.admitted_shed"] == 0 and 0 < shed < offered
    return holds, (
        f"{admission['admission.admitted_shed']:.0f} admitted shed, "
        f"{shed:.0f} of {offered} shed"
    )


@finding(
    "the controllers react, then walk all the way back",
    ">= 1 degrade step; every predicate restored",
    kind="exact",
)
def _react_and_restore(result):
    controlled = result["controlled"]
    holds = controlled["max_degrade_steps"] >= 1 and controlled["restored"]
    return holds, (
        f"{controlled['max_degrade_steps']:.0f} steps, restored {controlled['restored']}"
    )


FLASH_CROWD = Experiment(
    name="flash_crowd",
    help="a 10x regional flash crowd, closed loop vs none",
    run=run_overload_bench,
    args=(),
    scales={
        "report": {"duration_s": 10.0, "crowd_hold_s": 3.0},
        "default": {"duration_s": 10.0, "crowd_hold_s": 3.0},
        "full": {"duration_s": 14.0, "crowd_hold_s": 6.0},
    },
    render=_render_flash_crowd,
    expectations=(
        _drained, _baseline_breaches, _controlled_holds, _bounded_shedding,
        _react_and_restore,
    ),
)
