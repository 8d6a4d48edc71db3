"""Shared fixtures for the benchmark suite.

Every test runs one experiment of the table, prints its report, and
writes it to ``benchmarks/results/<name>.txt`` — with the result as
``<name>.json`` and each series in it as ``<name>_<path>.csv`` — so the
report survives pytest's output capturing.

Set ``REPRO_FULL=1`` to run the full-scale workloads (the complete
517 k-message trace, 10,000 messages per pub/sub rate, 100 MB files);
the default is a shape-preserving scaled run that finishes in minutes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sim.monitor import Series

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def scale() -> str:
    """The key of this session's entry in an ``Experiment.scales``."""
    return "full" if full_scale() else "default"


def _jsonable(value):
    """JSON for what ``json`` cannot encode: a series as its summary."""
    return value.summary() if isinstance(value, Series) else str(value)


class Reporter:
    """Collects report text, structured data and series, then prints the
    text and saves all three: ``<name>.txt``, ``<name>.json`` and one
    ``<name>_<key>.csv`` per series."""

    def __init__(self, name: str):
        self.name = name
        self._chunks = []
        self._data = {}
        self._series = {}

    def add(self, text: str) -> None:
        self._chunks.append(text)

    def add_data(self, key: str, value) -> None:
        """Attach machine-readable results (saved as JSON alongside)."""
        self._data[key] = value

    def add_series(self, key: str, series: Series) -> None:
        """Attach a series (saved as a two-column CSV alongside)."""
        self._series[key] = series

    def flush(self) -> None:
        body = "\n".join(self._chunks) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(body)
        if self._data:
            (RESULTS_DIR / f"{self.name}.json").write_text(
                json.dumps(self._data, indent=2, default=_jsonable)
            )
        for key, series in self._series.items():
            series.to_csv(RESULTS_DIR / f"{self.name}_{key}.csv")
        print(f"\n===== {self.name} =====")
        print(body)


@pytest.fixture()
def report(request):
    """A :class:`Reporter` named after the experiment the test runs."""
    reporter = Reporter(request.node.callspec.id)
    yield reporter
    reporter.flush()
