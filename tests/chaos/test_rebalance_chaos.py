"""Seeded and handcrafted rebalance chaos: membership changes (joins,
leaves, declared-dead failovers) interleaved with crashes, restarts, and
partitions against live traffic, checked by the full invariant set —
including the three cutover invariants (no delivery lost across a
cutover, replication factor restored at quiescence, exactly one owner
set per (shard, epoch)).

The handcrafted schedules pin the two nastiest interleavings
deterministically: a crash landing on the *joiner* mid-handoff and a
crash landing on a transfer *source* mid-handoff.  Both must resume
from the v5 snapshot and finish the rebalance without losing a frame.

``make rebalance-smoke`` selects these via the ``rebalance_smoke``
marker.
"""

import pytest

from repro.chaos import (
    ChaosEvent,
    RebalanceChaosConfig,
    run_rebalance_chaos,
    virtual_view,
)
from tests import golden

pytestmark = pytest.mark.rebalance_smoke


def config(tmp_path, **kwargs):
    kwargs.setdefault("trace_dir", str(tmp_path))
    return RebalanceChaosConfig(**kwargs)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_seeded_rebalance_sweep_is_violation_free(tmp_path, seed):
    report = run_rebalance_chaos(config(tmp_path, seed=seed))
    golden.check(f"chaos/rebalance_seed{seed}", virtual_view(report))
    assert report["violations"] == []
    assert report["unsourced_shards"] == 0
    assert report["waiter_timeouts"] == 0
    # Every run's schedule includes at least one membership change, so
    # the epoch must have advanced and the cutover invariant must have
    # actually fired — a sweep that checked nothing proves nothing.
    assert report["epoch_final"] >= 1
    assert report["cutovers_checked"] >= 1
    assert report["rebalances"]


def test_crash_joiner_mid_handoff(tmp_path):
    # The spare joins at t=1.0; freezes and transfers are in flight when
    # it crashes 150 ms later.  The restart at t=3.0 must resume parked
    # handoff blobs from the v5 snapshot and complete the cutover.
    schedule = [
        ChaosEvent(at=1.0, kind="node_join", target=("s0",)),
        ChaosEvent(at=1.15, kind="crash", target=("s0",)),
        ChaosEvent(at=3.0, kind="restart", target=("s0",)),
    ]
    report = run_rebalance_chaos(config(tmp_path, events=3), schedule)
    golden.check("chaos/rebalance_crash_joiner", virtual_view(report))
    assert report["violations"] == []
    assert report["epoch_final"] == 1
    assert report["cutovers_checked"] == 1
    assert report["unsourced_shards"] == 0


def test_crash_source_mid_handoff(tmp_path):
    # A member that sources transfers for the join crashes mid-handoff;
    # the coordinator retries against surviving co-owners or waits for
    # the restart, and no shard comes up unsourced.
    schedule = [
        ChaosEvent(at=1.0, kind="node_join", target=("s0",)),
        ChaosEvent(at=1.15, kind="crash", target=("n00",)),
        ChaosEvent(at=3.0, kind="restart", target=("n00",)),
    ]
    report = run_rebalance_chaos(config(tmp_path, events=3), schedule)
    golden.check("chaos/rebalance_crash_source", virtual_view(report))
    assert report["violations"] == []
    assert report["epoch_final"] == 1
    assert report["cutovers_checked"] == 1
    assert report["unsourced_shards"] == 0


def test_leave_under_partition_heals_and_restores_replication(tmp_path):
    # A leave executes while the inter-AZ link is partitioned; the
    # drain rides out the partition and replication is restored at
    # quiescence (checked by invariant 11 inside the harness).
    schedule = [
        ChaosEvent(at=0.8, kind="partition", target=("az0", "az1")),
        ChaosEvent(at=1.0, kind="node_leave", target=("n01",)),
        ChaosEvent(at=2.5, kind="heal", target=("az0", "az1")),
    ]
    report = run_rebalance_chaos(config(tmp_path, events=3), schedule)
    golden.check("chaos/rebalance_leave_under_partition", virtual_view(report))
    assert report["violations"] == []
    assert report["epoch_final"] == 1
    assert report["unsourced_shards"] == 0
