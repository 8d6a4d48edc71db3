"""Tiny-configuration smoke of the shard-scaling bench harness.

Lives under ``tests/`` so tier-1 exercises ``run_shard_scaling`` on
every PR; ``make bench-smoke`` and ``make shard-smoke`` select it via
the markers.
"""

import pytest

from repro.bench.runners import run_shard_scaling

pytestmark = [pytest.mark.bench_smoke, pytest.mark.shard_smoke]


def test_shard_scaling_smoke():
    result = run_shard_scaling(
        nodes=4,
        shard_count=8,
        replication=2,
        keys_grid=(500, 5000),
        messages=60,
    )
    assert result["config"]["shard_count"] == 8
    assert result["config"]["owners_per_shard"] == 2
    rows = result["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["sharded_converged"] and row["unsharded_converged"]
        assert row["unsharded_demand_converged"]
        # 4 nodes / 2 owners: against the full fan-out (every node
        # observing every stream) the report fan-out drops 3x; batching
        # effects — and, at 60 messages, the per-stack interest
        # announcements — keep the exact ratio workload-dependent, so the
        # smoke only pins > 1.5x.
        assert row["control_reduction"] > 1.5
        # Against an unsharded cluster whose reports follow demand too, a
        # report has one reader either way; only the heartbeats' peer
        # count still differs.  Reported, not gated.
        assert 0 < row["control_reduction_vs_demand"] < row["control_reduction"]
        assert row["payload_reduction"] > 1.5
        assert row["frontier_lag_gauges"] > 0
        assert row["sharded_max_cells"] <= row["unsharded_max_cells"]
    # Per-node cells are a function of owned shards, not of the key space.
    assert rows[0]["sharded_max_cells"] == rows[1]["sharded_max_cells"]
