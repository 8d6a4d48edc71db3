"""Shared fixtures for the benchmark suite.

Every bench regenerates one table or figure of the paper, prints the
comparison, and writes it to ``benchmarks/results/<name>.txt`` so the
report survives pytest's output capturing.

Set ``REPRO_FULL=1`` to run the full-scale workloads (the complete
517 k-message trace, 10,000 messages per pub/sub rate, 100 MB files);
the default is a shape-preserving scaled run that finishes in minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        help="append each bench's row to its tracked BENCH_<name>.json "
        "trajectory at the repo root (make bench-record); without it a "
        "run leaves tracked files alone",
    )


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def scale() -> str:
    """The key of this session's entry in an ``Experiment.scales``."""
    return "full" if full_scale() else "default"


def _git(*argv):
    try:
        done = subprocess.run(
            ("git",) + argv, cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


@pytest.fixture(scope="session")
def provenance():
    """Where this session's rows come from.  Session-scoped: taken before
    the first row lands, so the rows a run writes are not what makes its
    later rows ``dirty``."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "scale": scale(),
    }


@pytest.fixture()
def record_run(request, provenance):
    """``record_run(name, row)``: append ``row``, stamped with the
    session's provenance, to the ``BENCH_<name>.json`` trajectory at the
    repo root — only in a run started with ``--record``.  The one place
    the suite writes outside ``results/``."""

    def record(name: str, row: dict) -> None:
        if not request.config.getoption("--record"):
            return
        path = ROOT / f"BENCH_{name}.json"
        trajectory = json.loads(path.read_text()) if path.exists() else {"runs": []}
        trajectory["runs"].append({**row, "provenance": provenance})
        path.write_text(json.dumps(trajectory, indent=2) + "\n")

    return record


class Reporter:
    """Collects report text (and optional structured data), then prints
    it and saves both to disk: ``<name>.txt`` and ``<name>.json``."""

    def __init__(self, name: str):
        self.name = name
        self._chunks = []
        self._data = {}

    def add(self, text: str) -> None:
        self._chunks.append(text)

    def add_data(self, key: str, value) -> None:
        """Attach machine-readable results (saved as JSON alongside)."""
        self._data[key] = value

    def flush(self) -> None:
        body = "\n".join(self._chunks) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(body)
        if self._data:
            (RESULTS_DIR / f"{self.name}.json").write_text(
                json.dumps(self._data, indent=2, default=str)
            )
        print(f"\n===== {self.name} =====")
        print(body)


@pytest.fixture()
def report(request):
    reporter = Reporter(request.node.name.replace("test_", "", 1))
    yield reporter
    reporter.flush()
