"""The one harness's handler table and config surface, per scenario.

Every event kind the schedule generator can emit under a scenario's
budgets must have a handler there, a kind it cannot emit is refused
before the run starts, the configs accept only the fields callers set,
and a handcrafted ``schedule=`` goes through the same code path in all
three scenarios.
"""

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosEvent,
    ChaosHarness,
    OverloadChaosConfig,
    RebalanceChaosConfig,
    run_chaos,
    run_overload_chaos,
    run_rebalance_chaos,
)

SHARED_KINDS = {"crash", "restart", "partition", "heal"}

# scenario -> (config factory, the kinds only that scenario handles)
SCENARIOS = {
    "classic": (
        lambda **kw: ChaosConfig(disk_faults=True, **kw),
        {"disk_fault", "disk_heal"},
    ),
    "overload": (
        lambda **kw: OverloadChaosConfig(flash_crowds=2, slow_nodes=2, **kw),
        {"flash_crowd", "flash_end", "slow_node", "slow_heal"},
    ),
    "rebalance": (RebalanceChaosConfig, {"node_join", "node_leave"}),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_generated_kind_has_a_handler(scenario, tmp_path):
    make_config, own_kinds = SCENARIOS[scenario]
    seen = set()
    for seed in range(12):
        harness = ChaosHarness(
            make_config(seed=seed, events=24, trace_dir=str(tmp_path))
        )
        try:
            kinds = {event.kind for event in harness.schedule}
            assert kinds <= set(harness.handlers), (seed, kinds)
            assert set(harness.handlers) == SHARED_KINDS | own_kinds
        finally:
            harness.close()
        seen |= kinds
    # The sweep really generated the scenario's own kinds, so the
    # subset check above was not vacuous.
    assert own_kinds <= seen
    assert SHARED_KINDS <= seen


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_unknown_event_kind_is_refused_by_name(scenario, tmp_path):
    make_config, _own = SCENARIOS[scenario]
    schedule = [
        ChaosEvent(at=1.0, kind="crash", target=("n00",)),
        ChaosEvent(at=1.5, kind="meteor_strike", target=("n00",)),
        ChaosEvent(at=2.0, kind="restart", target=("n00",)),
    ]
    with pytest.raises(ValueError, match="meteor_strike"):
        ChaosHarness(make_config(trace_dir=str(tmp_path)), schedule=schedule)


def test_another_scenarios_kind_is_unknown_here(tmp_path):
    schedule = [ChaosEvent(at=1.0, kind="flash_crowd", target=("az0",))]
    with pytest.raises(ValueError, match="flash_crowd"):
        ChaosHarness(ChaosConfig(trace_dir=str(tmp_path)), schedule=schedule)


@pytest.mark.parametrize(
    "config_class, removed",
    [
        (ChaosConfig, "send_interval_s"),
        (ChaosConfig, "durability"),
        (OverloadChaosConfig, "admit_rate_per_s"),
        (OverloadChaosConfig, "azs"),
        (RebalanceChaosConfig, "shard_count"),
        (RebalanceChaosConfig, "traffic_end_s"),
    ],
)
def test_removed_config_fields_are_type_errors(config_class, removed):
    with pytest.raises(TypeError, match=removed):
        config_class(**{removed: 1})


@pytest.mark.parametrize(
    "run, config_class",
    [
        (run_chaos, ChaosConfig),
        (run_overload_chaos, OverloadChaosConfig),
        (run_rebalance_chaos, RebalanceChaosConfig),
    ],
)
def test_handcrafted_schedule_runs_in_every_scenario(run, config_class, tmp_path):
    schedule = [
        ChaosEvent(at=1.0, kind="crash", target=("n01",)),
        ChaosEvent(at=1.4, kind="partition", target=("az0", "az1")),
        ChaosEvent(at=2.2, kind="heal", target=()),
        ChaosEvent(at=2.6, kind="restart", target=("n01",)),
    ]
    report = run(config_class(trace_dir=str(tmp_path)), schedule=schedule)
    assert report["violations"] == []
    assert report["schedule"] == [[ev.at, ev.kind, list(ev.target)] for ev in schedule]
    assert [kind for _t, kind, _target in report["fired"]] == [
        "crash",
        "partition",
        "heal",
        "restart",
    ]
    # The shared restart handler re-checks the restarted node in every
    # scenario (with durability off it only counts).
    assert report["restarts_checked"] == 1
