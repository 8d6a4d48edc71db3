"""The canonical benchmark's own output checks, against this ``src/``.

``perf/`` is outside tier-1's ``testpaths`` — it is the measuring stick,
and a PR that claims a gain may not touch it.  That cuts both ways: a
``src/`` change that breaks something ``perf/workloads.py`` still uses (a
config keyword, a stats key, a method) would otherwise be found only when
the pipeline runs the benchmark.  So the five workloads run here at a
fiftieth of their size, ``perf/run.py --scale 0.02 --seconds 0`` in this
process, and each must come out ``correct`` with no failed send.
``make perf-smoke`` selects it by marker.
"""

import json
from pathlib import Path

import pytest

from perf import measure
from perf.workloads import BUILDERS

pytestmark = pytest.mark.perf_smoke

ROOT = Path(__file__).resolve().parents[2]


def test_the_workloads_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(BUILDERS) == sorted(entry["name"] for entry in declared)


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_workload_is_correct_at_smoke_scale(workload):
    result = measure.end_to_end(workload, seed=1, scale=0.02, seconds=0)
    assert result["violations"] == []  # run.py's ``correct``
    assert result["failed"] == 0
    assert result["attempted"] == result["samples"] >= 100
    assert result["repetitions"] >= 3
