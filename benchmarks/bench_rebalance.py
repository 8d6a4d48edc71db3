"""Live shard rebalancing under load: scale out, then scale in.

Not a figure of the paper — it guards the membership layer (ROADMAP
item: epoch-fenced ownership change) added on top of the reproduction.
A 64-shard cluster walks its membership 8 -> 10 -> 7 while every node
keeps sending: two spares join (one cutover each), then three members
leave.  The numbers that must hold:

- moves are minimal — each cutover only migrates the shards the joiner
  wins or the leaver owned, never a full reshuffle;
- traffic on *unmoved* shards keeps stabilizing while handoffs are in
  flight (the collateral-disturbance probe stays finite and settles
  back to the steady-state latency after cutover);
- every phase ends with each shard at exactly its replication factor,
  live stacks included, with zero unsourced rebuilds.

A ``--record`` run lands in ``BENCH_rebalance.json`` at the repo root so
the perf trajectory covers the rebalance path too; each run records per-phase
handoff bytes, cutover latency, retries, and the probes.
"""

import math

from repro.bench import format_table
from repro.bench.runners import run_rebalance_bench
from conftest import full_scale

NODES = 8
SHARD_COUNT = 64
REPLICATION = 2


def test_live_rebalance_under_load(benchmark, report, record_run):
    result = benchmark.pedantic(
        lambda: run_rebalance_bench(
            nodes=NODES,
            shard_count=SHARD_COUNT,
            replication=REPLICATION,
            pump_shards=4 if full_scale() else 2,
        ),
        rounds=1,
        iterations=1,
    )
    phases = result["phases"]
    report.add(
        format_table(
            [
                "phase",
                "members",
                "cutovers",
                "shards moved",
                "cutover lat (s)",
                "handoff KiB",
                "retries",
                "probe during (s)",
                "probe after (s)",
                "repl ok",
            ],
            [
                (
                    p["phase"],
                    p["members"],
                    len(p["cutovers"]),
                    sum(c["shards_moved"] for c in p["cutovers"]),
                    "/".join(f"{c['latency_s']:.2f}" for c in p["cutovers"])
                    or "-",
                    f"{p['handoff_bytes'] / 1024:.1f}",
                    p["transfer_retries"],
                    "-"
                    if p["probe_disturbance_s"] is None
                    else f"{p['probe_disturbance_s']:.3f}",
                    f"{p['probe_after_s']:.3f}",
                    p["replication_restored"],
                )
                for p in phases
            ],
            title=(
                f"Live rebalance under load ({SHARD_COUNT} shards x "
                f"{REPLICATION} owners, {NODES} -> "
                f"{NODES + len(result['config']['joins'])} -> "
                f"{len(result['final_members'])} nodes)"
            ),
        )
    )
    report.add_data("config", result["config"])
    report.add_data("phases", phases)

    record_run(
        "rebalance",
        {
            "nodes": result["config"]["nodes"],
            "shard_count": result["config"]["shard_count"],
            "replication": result["config"]["replication"],
            "final_members": len(result["final_members"]),
            "final_epoch": result["final_epoch"],
            "messages_sent": result["messages_sent"],
            "phases": [
                {
                    "phase": p["phase"],
                    "members": p["members"],
                    "shards_moved": sum(
                        c["shards_moved"] for c in p["cutovers"]
                    ),
                    "cutover_latency_s": [
                        c["latency_s"] for c in p["cutovers"]
                    ],
                    "handoff_bytes": p["handoff_bytes"],
                    "transfer_retries": p["transfer_retries"],
                    "drain_timeouts": p["drain_timeouts"],
                    "probe_disturbance_s": p["probe_disturbance_s"],
                    "probe_after_s": p["probe_after_s"],
                    "replication_restored": p["replication_restored"],
                }
                for p in phases
            ],
        },
    )

    steady, out, down = phases
    # Each phase leaves the cluster at full replication, every rebuild
    # sourced from a real transfer.
    for p in phases:
        assert p["replication_restored"], p
        assert all(c["unsourced"] == 0 for c in p["cutovers"]), p
    # One cutover per membership op; epochs advance monotonically.
    assert len(out["cutovers"]) == 2 and len(down["cutovers"]) == 3
    assert result["final_epoch"] == 5
    # Minimality: a join moves at most the shards the joiner wins — with
    # 64 * 2 ownerships over 9-10 nodes, far below half the shard space.
    for c in out["cutovers"]:
        assert 0 < c["shards_moved"] < SHARD_COUNT, c
    # Unmoved shards keep stabilizing mid-handoff: the disturbance probe
    # completed (no timeout) in both membership phases.
    for p in (out, down):
        assert p["probe_disturbance_s"] is not None
        assert math.isfinite(p["probe_disturbance_s"]), p
        assert math.isfinite(p["probe_after_s"]), p
    assert math.isfinite(steady["probe_after_s"])
    # State actually moved over the wire.
    assert out["handoff_bytes"] > 0 and down["handoff_bytes"] > 0
