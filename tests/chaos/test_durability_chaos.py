"""Durability under chaos: disk faults + crashes across many seeds.

The ISSUE's acceptance bar for honest durability: chaos runs with
disk-fault schedules (failed fsyncs, torn writes, ENOSPC, EIO) layered
on crash/restart/partition events must hold the two durability
invariants — *durability honesty* (no node's ``persisted`` claim ever
exceeds its WAL's fsync watermark, re-checked across crash-restart) and
*no acked-persisted loss* (every persisted claim a peer observed
survives the claimant's recovery) — across at least 20 seeds.

Marked ``durability_smoke`` so ``make durability-smoke`` runs exactly
this sweep.
"""

import pytest

from repro.chaos import CHAOS_DISK_FAULTS, ChaosConfig, run_chaos, virtual_view
from tests import golden

pytestmark = pytest.mark.durability_smoke

SEEDS = range(20)

_reports = {}  # seed -> report, shared across the sweep's assertions


def durability_config(seed):
    """Small-but-hostile: 3 single-node AZs, disk faults armed at chaos
    rate, periodic checkpoints so compaction runs under fire too."""
    return ChaosConfig(
        seed=seed,
        azs=3,
        nodes_per_az=1,
        events=10,
        disk_faults=True,
        checkpoint_interval_s=0.8,
        settle_slice_s=2.0,
        max_settle_slices=120,
    )


def report_for(seed):
    if seed not in _reports:
        _reports[seed] = run_chaos(durability_config(seed))
    return _reports[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_fault_chaos_holds_durability_invariants(seed):
    report = report_for(seed)
    golden.check(f"chaos/durability_seed{seed}", virtual_view(report))
    assert report["violations"] == []
    assert report["durability"] is True
    # Traffic converged despite the faults: every remote stream is
    # fully stable everywhere (the strict predicate, which includes
    # the persisted-gated control traffic, reached the last send).
    for node_name, per_origin in report["final_frontiers"].items():
        for origin, frontier in per_origin.items():
            if origin == node_name:
                continue
            assert frontier == report["messages_sent"][origin], (
                f"seed {seed}: {node_name} stalled at {frontier} for "
                f"{origin} (sent {report['messages_sent'][origin]})"
            )


def test_sweep_actually_exercised_the_fault_machinery():
    """Across the sweep the schedules must have injected every chaos
    disk-fault kind, taken checkpoints, and re-checked restarts — a sweep
    that never faults proves nothing.  The injector is consulted once per
    group-commit write and once per fsync, so the write kinds get fewer
    chances than records; each must still fire."""
    faults = checkpoints = restarts = disk_events = 0
    by_kind = dict.fromkeys(CHAOS_DISK_FAULTS, 0)
    for seed in SEEDS:
        report = report_for(seed)
        faults += report["disk_faults_injected"]
        for kind, count in report["disk_faults_by_kind"].items():
            by_kind[kind] += count
        checkpoints += report["checkpoints_taken"]
        restarts += report["restarts_checked"]
        disk_events += sum(
            1 for _t, kind, _target in report["fired"] if kind == "disk_fault"
        )
    assert faults == sum(by_kind.values())
    assert set(by_kind) == set(CHAOS_DISK_FAULTS)
    assert all(count > 0 for count in by_kind.values()), by_kind
    assert checkpoints > 0
    assert restarts > 0
    assert disk_events > 0


def test_disk_fault_run_is_deterministic_per_seed():
    first = virtual_view(report_for(3))
    second = virtual_view(run_chaos(durability_config(3)))
    assert first == second
