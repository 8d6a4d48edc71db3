"""The chaos smoke run: a tiny seeded schedule, end to end, fast.

Marked ``chaos_smoke`` so ``make chaos-smoke`` can run exactly this: a
3-AZ/6-node cluster, a dozen seeded fault events under traffic, every
safety invariant checked, and a determinism cross-check.  Budget: well
under ten seconds of wall clock.
"""

import pytest

from repro.chaos import (
    HOST_TIME_KEYS,
    ChaosConfig,
    ChaosHarness,
    run_chaos,
    virtual_view,
)
from tests import golden

pytestmark = pytest.mark.chaos_smoke

SEED = 7


def smoke_config(seed=SEED):
    return ChaosConfig(seed=seed, events=12)


def test_seeded_chaos_run_holds_every_invariant():
    report = run_chaos(smoke_config())
    golden.check(f"chaos/classic_seed{SEED}", virtual_view(report))
    assert report["violations"] == []
    assert report["waiter_timeouts"] == 0
    assert len(report["fired"]) >= 10
    assert report["nodes"] == 6 and report["azs"] == 3
    # The run exercised real fault machinery, not a quiet cluster.
    kinds = {kind for _t, kind, _target in report["fired"]}
    assert "crash" in kinds and "restart" in kinds
    totals = report["cluster_totals"]
    assert totals["suspicions"] >= 1
    assert totals["replayed_chunks"] >= 1
    # Traffic converged: every origin's stream is stable everywhere.
    for node_name, per_origin in report["final_frontiers"].items():
        for origin, frontier in per_origin.items():
            if origin == node_name:
                continue
            assert frontier == report["messages_sent"][origin]


def test_chaos_run_is_deterministic_per_seed():
    first, second = run_chaos(smoke_config()), run_chaos(smoke_config())
    assert HOST_TIME_KEYS <= first.keys()  # the names are the report's own
    assert virtual_view(first) == virtual_view(second)


def test_harness_schedule_is_prebuilt_and_reported():
    harness = ChaosHarness(smoke_config())
    try:
        assert len(harness.schedule) >= 12
        assert harness.node_names == ["n00", "n01", "n10", "n11", "n20", "n21"]
    finally:
        harness.close()
