"""Workload generator tests: trace shape, rates, size distributions."""

import pytest

from repro.errors import ConfigError
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads import (
    bounded_lognormal,
    constant_rate,
    poisson_rate,
    synthesize_trace,
    trace_stats,
)
from repro.workloads.dropbox_trace import GIB, message_count


def test_full_trace_matches_published_volume_and_messages():
    records = synthesize_trace(scale=1.0)
    stats = trace_stats(records)
    assert stats["bytes"] == pytest.approx(3.87 * GIB, rel=0.001)
    # Paper: 517,294 messages after the 8 KB split.
    assert stats["messages"] == pytest.approx(517_294, rel=0.03)
    assert stats["duration_s"] <= 983.0


def test_trace_has_three_huge_files():
    records = synthesize_trace(scale=1.0)
    huge = [r for r in records if r.size_bytes > 100e6]
    assert len(huge) == 3
    times = sorted(r.time_s for r in huge)
    assert times[0] < 983 * 0.3
    assert 983 * 0.4 < times[1] < 983 * 0.65
    assert times[2] > 983 * 0.7


def test_trace_is_sorted_and_within_window():
    records = synthesize_trace(scale=0.2)
    times = [r.time_s for r in records]
    assert times == sorted(times)
    assert all(0 <= t <= 983 * 0.2 for t in times)


def test_trace_is_deterministic_per_seed():
    a = synthesize_trace(scale=0.1, seed=3)
    b = synthesize_trace(scale=0.1, seed=3)
    c = synthesize_trace(scale=0.1, seed=4)
    assert a == b
    assert a != c


def test_scale_shrinks_volume_proportionally():
    full = trace_stats(synthesize_trace(scale=1.0))
    half = trace_stats(synthesize_trace(scale=0.5))
    assert half["bytes"] == pytest.approx(full["bytes"] / 2, rel=0.01)


def test_scale_validation():
    with pytest.raises(ConfigError):
        synthesize_trace(scale=0)
    with pytest.raises(ConfigError):
        synthesize_trace(scale=1.5)


def test_message_count_counts_tail_chunks():
    from repro.workloads.dropbox_trace import TraceRecord

    records = [
        TraceRecord(0.0, "a", 8192),
        TraceRecord(1.0, "b", 8193),
        TraceRecord(2.0, "c", 1),
    ]
    assert message_count(records) == 1 + 2 + 1


def test_empty_trace_stats():
    assert trace_stats([])["files"] == 0


def test_constant_rate_timing():
    sim = Simulator()
    times = []
    constant_rate(sim, rate_per_s=10, count=5, send=lambda i: times.append(sim.now))
    sim.run()
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])


def test_constant_rate_validation():
    sim = Simulator()
    with pytest.raises(ConfigError):
        constant_rate(sim, 0, 5, lambda i: None)
    with pytest.raises(ConfigError):
        poisson_rate(sim, 10, 0, lambda i: None)


def test_poisson_rate_mean_interval():
    sim = Simulator()
    times = []
    rng = RngRegistry(1).stream("poisson")
    poisson_rate(sim, rate_per_s=100, count=500, send=lambda i: times.append(sim.now), rng=rng)
    sim.run()
    assert len(times) == 500
    mean_interval = times[-1] / 499
    assert mean_interval == pytest.approx(0.01, rel=0.15)


def test_bounded_lognormal_respects_bounds():
    rng = RngRegistry(2).stream("sizes")
    draws = [
        bounded_lognormal(rng, median_bytes=1000, sigma=2.0, cap_bytes=10_000)
        for _ in range(500)
    ]
    assert all(128 <= d <= 10_000 for d in draws)
    assert min(draws) < 1000 < max(draws)


def test_bounded_lognormal_validation():
    rng = RngRegistry(0).stream("x")
    with pytest.raises(ConfigError):
        bounded_lognormal(rng, 0, 1, 10)
    with pytest.raises(ConfigError):
        bounded_lognormal(rng, 100, 1, 50)
