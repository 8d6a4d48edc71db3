"""Unit tests for measurement collectors."""

import math

import pytest

from repro.sim.monitor import Histogram, Series, percentile


def test_series_records_and_summarizes():
    s = Series("lat")
    for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        s.record(float(i), v)
    assert len(s) == 4
    assert s.mean() == 2.5
    assert s.min() == 1.0
    assert s.max() == 4.0
    assert s.summary()["count"] == 4.0


def test_series_window_mean_is_half_open():
    s = Series()
    s.record(0.0, 10.0)
    s.record(1.0, 20.0)
    s.record(2.0, 30.0)
    assert s.window_mean(0.0, 2.0) == 15.0
    assert math.isnan(s.window_mean(5.0, 6.0))


def test_series_downsample_preserves_mean_of_uniform_data():
    s = Series()
    for i in range(100):
        s.record(float(i), 5.0)
    down = s.downsample(10)
    assert len(down) == 10
    assert all(v == 5.0 for _, v in down)


def test_series_downsample_single_point():
    s = Series()
    s.record(3.0, 7.0)
    down = s.downsample(4)
    assert list(down) == [(3.0, 7.0)]


def test_series_csv_roundtrip(tmp_path):
    s = Series("lat")
    s.record(0.5, 1.25)
    s.record(1.5, 2.75)
    path = tmp_path / "series.csv"
    s.to_csv(path, header=("t", "v"))
    header, *rows = path.read_text().splitlines()
    assert header == "t,v"
    assert [tuple(map(float, row.split(","))) for row in rows] == list(s)


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 50))


def test_histogram_stats():
    h = Histogram()
    for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        h.record(v)
    assert h.mean() == 5.0
    assert h.percentile(50) == pytest.approx(4.5)
    assert h.stdev() == pytest.approx(2.138, abs=1e-3)


def test_histogram_stdev_of_singleton_is_zero():
    h = Histogram()
    h.record(1.0)
    assert h.stdev() == 0.0
