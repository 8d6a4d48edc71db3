"""Sharded ACK tables with partial replication: control-plane scaling.

Not a figure of the paper — it guards the shard layer (ROADMAP item 1)
added on top of the reproduction.  The same keyed write workload runs
through a partially replicated cluster (64 shards, 2 owners each, 8
nodes) and through the classic full-fan-out cluster (every node
observing every stream; the ratio against an unsharded cluster whose
reports follow demand is reported beside it), at key spaces from ten
thousand to a million keys.  Partial replication must cut
cluster-wide control-plane bytes by at least 4x (the owner-set fan-out
is ``replication - 1`` instead of ``nodes - 1``), and per-node ACK-table
cells must stay flat as the key space grows a hundredfold — control
state is a function of owned shards, never of keys.

A ``--record`` run lands in ``BENCH_shard.json`` at the repo root so
the perf trajectory covers the shard layer too; each run records the shard
configuration (shard count, owners per shard) next to its numbers.
"""

from repro.bench import format_table
from repro.bench.runners import run_shard_scaling
from conftest import full_scale

NODES = 8
SHARD_COUNT = 64
REPLICATION = 2
KEYS_GRID = (10_000, 1_000_000)


def test_shard_scaling_control_plane(benchmark, report, record_run):
    messages = 960 if full_scale() else 240
    result = benchmark.pedantic(
        lambda: run_shard_scaling(
            nodes=NODES,
            shard_count=SHARD_COUNT,
            replication=REPLICATION,
            keys_grid=KEYS_GRID,
            messages=messages,
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["rows"]
    report.add(
        format_table(
            [
                "keys",
                "ctrl bytes (sharded)",
                "ctrl bytes (full)",
                "ctrl x",
                "ctrl x (vs demand)",
                "payload x",
                "cells/node (sharded)",
                "cells/node (full)",
                "lag gauges",
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
                for r in rows
            ],
            title=(
                f"Partial replication ({SHARD_COUNT} shards x "
                f"{REPLICATION} owners, {NODES} nodes) vs full fan-out"
            ),
        )
    )
    report.add_data("config", result["config"])
    report.add_data("rows", rows)

    record_run(
        "shard",
        {
            # The shard configuration rides with every run's numbers.
            "nodes": result["config"]["nodes"],
            "shard_count": result["config"]["shard_count"],
            "replication": result["config"]["replication"],
            "owners_per_shard": result["config"]["owners_per_shard"],
            "messages": messages,
            "keys": [r["keys"] for r in rows],
            "control_reduction": [r["control_reduction"] for r in rows],
            "control_reduction_vs_demand": [
                r["control_reduction_vs_demand"] for r in rows
            ],
            "payload_reduction": [r["payload_reduction"] for r in rows],
            "sharded_control_bytes": [r["sharded_control_bytes"] for r in rows],
            "unsharded_control_bytes": [
                r["unsharded_control_bytes"] for r in rows
            ],
            "sharded_max_cells": [r["sharded_max_cells"] for r in rows],
            "frontier_lag_max": [r["frontier_lag_max"] for r in rows],
        },
    )

    for r in rows:
        # Both systems must actually have stabilized the workload.
        assert r["sharded_converged"] and r["unsharded_converged"]
        # The tentpole number: >= 4x less control traffic (the owner-set
        # fan-out gives ~(nodes-1)/(replication-1) = 7x headroom here).
        assert r["control_reduction"] >= 4.0, r
        assert r["payload_reduction"] >= 4.0, r
        assert r["frontier_lag_gauges"] > 0
    # Near-flat per-node memory at 1M keys: the ACK-cell footprint is
    # identical across a 100x key-space growth.
    cells = [r["sharded_max_cells"] for r in rows]
    assert len(set(cells)) == 1, cells
