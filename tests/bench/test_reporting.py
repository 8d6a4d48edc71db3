"""Tests for the report-formatting helpers."""

import math

from repro.bench.reporting import format_series, format_table


def test_format_table_aligns_columns():
    text = format_table(
        ["name", "value"], [("a", 1), ("longer-name", 22)], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert "longer-name" in lines[4]
    # All data rows share the header's column offsets.
    assert lines[3].index("1") == lines[4].index("22")


def test_format_table_renders_floats_compactly():
    text = format_table(["x"], [(0.123456,), (1234.5678,), (0.0,)])
    assert "0.1235" in text
    assert "1.23e+03" in text


def test_format_series_draws_bars():
    text = format_series([(0, 1.0), (1, 2.0)], title="S")
    lines = text.splitlines()
    assert lines[0] == "S"
    assert lines[-1].count("#") == 2 * lines[-2].count("#")


def test_format_series_empty_and_nan():
    assert "(empty series)" in format_series([])
    text = format_series([(0, float("nan")), (1, 3.0)])
    assert "nan" in text
