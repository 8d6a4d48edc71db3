"""Smoke test of the benchmark itself, at a fiftieth of its size.

    PYTHONPATH=src python -m pytest perf -q

Outside tier-1's ``testpaths`` on purpose: it checks the measuring stick,
not the program.
"""

import json
import os
import subprocess
import sys

import pytest

from perf.layers import make_layer_of

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)


def run(script, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(PERF, script), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "suite.json"
    done = run("run.py", "--scale", "0.02", "--seconds", "0", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return out, json.load(handle), done.stdout


def test_suite_reports_every_declared_metric(bench, suite):
    _, document, stdout = suite
    assert document["claim"] is None
    for key in ("commit", "dirty", "python", "platform", "nproc", "seed",
                "scale", "utc"):
        assert key in document["provenance"]
    names = [m["name"] for m in bench["end_to_end"]]
    assert set(document["workloads"]) == {w["name"] for w in bench["workloads"]}
    for workload, passes in document["workloads"].items():
        record = passes["end_to_end"]
        assert record["correct"] and record["failed"] == 0, record["violations"]
        assert record["attempted"] == record["samples"] >= 100
        # Determinism across repetitions is one of the output checks.
        assert record["repetitions"] >= 3 and not record["violations"]
        assert list(record["metrics"]) == names
        for name, metric in record["metrics"].items():
            assert metric["value"] > 0, (workload, name)
            assert f"{name} " in stdout
        assert record["config"]["sends"] == record["attempted"]


def test_one_workload_prints_the_driver_line(bench):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run("run.py", "--workload", "durable_waitfor", "--seed", "5",
                   "--scale", "0.02", "--seconds", "0", "--trace", str(trace))
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in bench[section]]
    metrics = line["metrics"]
    assert metrics["core.durability.self_us_per_send"]["value"] > 0
    assert metrics["durability.fsyncs_per_send"]["value"] > 0
    assert metrics["transport.retransmits_per_send"]["value"] == 0
    assert metrics["unmapped.self_us_per_send"]["value"] == 0


def test_compare_accepts_itself_and_rejects_a_regression(suite, tmp_path):
    out, document, _ = suite
    same = run("compare.py", str(out), str(out), "--identical")
    assert same.returncode == 0, same.stdout + same.stderr
    metric = document["workloads"]["wan_small"]["end_to_end"]["metrics"]
    metric["wire_bytes_per_send"]["value"] *= 1.05
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(document))
    regressed = run("compare.py", str(out), str(worse))
    assert regressed.returncode == 1
    assert "regressed" in regressed.stdout


def test_unknown_file_falls_back_to_its_package(tmp_path):
    layer_of = make_layer_of(tmp_path / "repro", tmp_path / "perf")
    assert layer_of(str(tmp_path / "repro/transport/fifo.py")) == "transport.fifo"
    assert layer_of(str(tmp_path / "repro/core/brand_new.py")) == "core.node"
    assert layer_of(str(tmp_path / "repro/newpkg/x.py")) == "newpkg"
    assert layer_of(str(tmp_path / "perf/workloads.py")) == "harness"
    assert layer_of("<stabilizer-dsl>") == "core.frontier"
    assert layer_of("/usr/lib/python3/heapq.py") is None


def test_builtin_self_time_goes_to_its_callers():
    from perf.trace import attribute

    step = ("/x/repro/sim/kernel.py", 5, "step")
    send = ("/x/repro/transport/fifo.py", 10, "send")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {  # func -> (primitive calls, calls, self s, cumulative s, callers)
        step: (1, 1, 1.0, 4.0, {}),
        send: (2, 2, 2.0, 3.0, {step: (2, 2, 2.0, 3.0)}),
        push: (4, 4, 1.0, 1.0, {step: (1, 1, 0.25, 0.25),
                                send: (3, 3, 0.75, 0.75)}),
    }
    table = attribute(stats, make_layer_of("/x/repro", "/x/perf"))
    self_s = {layer: sum(cell[0] for cell in functions.values())
              for layer, functions in table.items()}
    calls = {layer: sum(cell[1] for cell in functions.values())
             for layer, functions in table.items()}
    assert self_s == {"sim": 1.25, "transport.fifo": 2.75}
    assert calls == {"sim": 2.0, "transport.fifo": 5.0}
