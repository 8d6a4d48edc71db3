"""Smoke tests for the experiment runners (tiny parameters).

Every driver's claims are findings of its declared experiment, checked
by the tier-1 report gate (``test_report_smoke.py``) at each experiment's
report scale.  These tests pin down the contract of the helpers the
drivers build on and of each returned structure, at parameters smaller
still.
"""

import math

import pytest

from repro.bench.runners import (
    file_sync_time_paxos,
    file_sync_time_stabilizer,
    run_dsl_microbench,
    run_pubsub_pulsar,
    run_pubsub_stabilizer,
    run_quorum_read,
    run_reconfig,
    run_trace_experiment,
    synthesize_predicate,
)
from repro.dsl.parser import parse


def test_synthesize_predicate_counts():
    source = synthesize_predicate(3, 12)
    assert source.count("KTH_MIN") == 3
    assert source.count("$") == 12
    parse(source)  # must be valid DSL


def test_synthesize_predicate_validation():
    with pytest.raises(ValueError):
        synthesize_predicate(0, 5)
    with pytest.raises(ValueError):
        synthesize_predicate(6, 5)


def test_dsl_microbench_rows():
    rows = run_dsl_microbench(
        operator_counts=(1, 2), operand_counts=(5,), evaluations=200
    )
    assert len(rows) == 2
    for row in rows:
        assert row["compile_ms"] > 0
        assert row["eval_us"] > 0
        assert row["interp_eval_us"] > row["eval_us"]


def test_quorum_read_runner():
    result = run_quorum_read(sizes_bytes=(1024,), reads_per_size=2)
    assert 0.030 < result["latency_s"][1024] < 0.045
    assert result["rtt_s"]["WI"] == pytest.approx(0.0356, rel=0.05)


def test_trace_experiment_tiny():
    result = run_trace_experiment(scale=0.005)
    assert result["messages"] > 500
    series = result["series"]
    assert set(series) == {
        "OneRegion",
        "MajorityRegions",
        "AllRegions",
        "OneWNode",
        "MajorityWNodes",
        "AllWNodes",
    }
    # Every message's stability was eventually recorded for every predicate.
    for s in series.values():
        assert len(s) == result["messages"]
    assert series["OneWNode"].mean() <= series["AllWNodes"].mean()


def test_file_sync_single_points():
    stab = file_sync_time_stabilizer(100_000, "MajorityRegions")
    paxos = file_sync_time_paxos(100_000)
    assert 0 < stab < paxos < 1.0


def test_pubsub_runners_tiny():
    stab = run_pubsub_stabilizer(rate=500, messages=50)
    puls = run_pubsub_pulsar(rate=500, messages=50)
    for result in (stab, puls):
        for site in ("UT2", "WI", "CLEM", "MA"):
            assert result[site]["delivered"] == 50
            assert not math.isnan(result[site]["latency_ms"])
            assert result[site]["throughput_mbit"] > 0
    # WAN latency floor is the RTT; LAN is sub-millisecond.
    assert stab["WI"]["latency_ms"] > 30
    assert stab["UT2"]["latency_ms"] < 5


def test_reconfig_runner_tiny():
    result = run_reconfig(messages=160, rate=80.0, toggle_every_s=1.0)
    assert len(result["all_sites"]) == 160
    assert len(result["changing"]) == 160
    assert result["all_sites"].mean() > result["three_sites"].mean()
    kinds = [kind for _t, kind in result["toggles"]]
    assert kinds[0] == "subscribe"
    assert "unsubscribe" in kinds
