"""Seeded schedule generator: determinism and validity invariants."""

import pytest

from repro.chaos.schedule import ChaosEvent, describe, generate_schedule

GROUPS = {
    "az0": ["n00", "n01"],
    "az1": ["n10", "n11"],
    "az2": ["n20", "n21"],
}


def replay(schedule):
    """Walk a schedule tracking fault state; assert per-step validity."""
    crashed = set()
    partitioned = False
    last_at = -1.0
    for ev in schedule:
        assert ev.at > last_at
        last_at = ev.at
        if ev.kind == "crash":
            assert ev.target[0] not in crashed
            crashed.add(ev.target[0])
            assert len(crashed) <= (sum(map(len, GROUPS.values())) - 1) // 2
        elif ev.kind == "restart":
            assert ev.target[0] in crashed
            crashed.discard(ev.target[0])
        elif ev.kind == "partition":
            assert not partitioned  # at most one cut at a time
            assert ev.target[0] != ev.target[1]
            assert set(ev.target) <= set(GROUPS)
            partitioned = True
        elif ev.kind == "heal":
            assert partitioned
            partitioned = False
        else:
            pytest.fail(f"unknown kind {ev.kind!r}")
    return crashed, partitioned


@pytest.mark.parametrize("seed", range(20))
def test_schedules_are_valid_and_end_closed(seed):
    schedule = generate_schedule(GROUPS, seed=seed, events=12)
    assert len(schedule) >= 12
    crashed, partitioned = replay(schedule)
    # Every fault is closed: the cluster ends at full health.
    assert crashed == set()
    assert not partitioned


def test_same_seed_same_schedule():
    a = generate_schedule(GROUPS, seed=99, events=15)
    b = generate_schedule(GROUPS, seed=99, events=15)
    assert a == b


def test_different_seeds_differ():
    a = generate_schedule(GROUPS, seed=1, events=15)
    b = generate_schedule(GROUPS, seed=2, events=15)
    assert a != b


def test_minimum_schedule_is_one_fault_and_its_repair():
    schedule = generate_schedule(GROUPS, seed=3, events=2)
    assert len(schedule) >= 2
    replay(schedule)


def test_max_crashed_is_respected():
    # Four nodes keep a live majority of three: one crash at a time.
    four = {"az0": ["n00", "n01"], "az1": ["n10", "n11"]}
    schedule = generate_schedule(four, seed=11, events=40)
    down = set()
    for ev in schedule:
        if ev.kind == "crash":
            down.add(ev.target[0])
            assert len(down) <= 1
        elif ev.kind == "restart":
            down.discard(ev.target[0])


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        generate_schedule(GROUPS, seed=0, events=1)
    with pytest.raises(ValueError):
        generate_schedule({"solo": ["n0"]}, seed=0, events=4)


def test_describe_renders_every_event():
    schedule = generate_schedule(GROUPS, seed=5, events=8)
    text = describe(schedule)
    assert len(text.splitlines()) == len(schedule)
    assert "crash" in text or "partition" in text


def test_events_are_namedtuples_with_rounded_times():
    schedule = generate_schedule(GROUPS, seed=6, events=8)
    for ev in schedule:
        assert isinstance(ev, ChaosEvent)
        assert ev.at == round(ev.at, 6)
