"""Tests for the series-analysis toolkit."""

import pytest

from repro.bench.analysis import (
    alternation_score,
    saturation_knee,
    spike_count,
    windowed_means,
)
from repro.sim.monitor import Series


def series_from(values, dt=1.0):
    s = Series()
    for i, v in enumerate(values):
        s.record(i * dt, v)
    return s


def test_spike_count_basic():
    flat = series_from([1, 1, 1, 1])
    assert spike_count(flat) == 1  # everything above 45% of max
    spiky = series_from([0, 0, 10, 0, 0, 10, 0, 0])
    assert spike_count(spiky) == 2


def test_spike_count_hysteresis_merges_shoulder_noise():
    # Dips to 40% of max do not end a spike (exit threshold is 30%).
    s = series_from([0, 10, 4, 10, 0])
    assert spike_count(s) == 1
    # Dips below 30% do.
    s = series_from([0, 10, 2, 10, 0])
    assert spike_count(s) == 2


def test_spike_count_validation_and_empty():
    assert spike_count(Series()) == 0
    with pytest.raises(ValueError):
        spike_count(series_from([1]), enter_frac=0.2, exit_frac=0.5)


def test_saturation_knee():
    rates = [250, 500, 1000, 2000, 4000]
    latencies = [36, 36, 37, 80, 200]
    assert saturation_knee(rates, latencies) == 2000
    assert saturation_knee(rates, [36] * 5) is None
    with pytest.raises(ValueError):
        saturation_knee([1], [1, 2])
    with pytest.raises(ValueError):
        saturation_knee([1], [0])


def test_windowed_means():
    s = series_from([1, 1, 3, 3], dt=1.0)  # times 0..3
    means = windowed_means(s, width=2.0)
    assert means == {0.0: 1.0, 2.0: 3.0}
    with pytest.raises(ValueError):
        windowed_means(s, width=0)


def test_alternation_score_detects_toggling():
    values = []
    for window in range(6):
        values.extend([10.0 if window % 2 == 0 else 5.0] * 5)
    s = series_from(values, dt=1.0)
    score = alternation_score(s, width=5.0)
    assert score == pytest.approx(5.0)
    flat = series_from([7.0] * 30)
    assert alternation_score(flat, width=5.0) == pytest.approx(0.0)
