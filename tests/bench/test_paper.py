"""Tests for the paper-expectations registry and verdict logic."""

from repro.bench.paper import Verdict, experiments, paper_experiments, verdicts_for
from repro.sim.monitor import Series


def test_every_expectation_belongs_to_a_known_experiment():
    assert set(paper_experiments()) == {
        "table1", "table2", "table3", "fig3", "microbench", "fig4", "fig5",
        "fig6", "fig7", "fig8",
    }
    assert set(experiments()) - set(paper_experiments()) == {
        "ack_batching", "chunk_size", "jit", "cross_traffic", "redblue",
        "scalability", "strategies", "hotpath", "dataplane_pipeline",
        "durability", "sim_kernel", "chaos", "shard_scaling", "rebalance",
        "flash_crowd",
    }
    for name, exp in experiments().items():
        assert exp.name == name and exp.expectations
        assert set(exp.scales) == {"report", "default", "full"}
        for finding in exp.expectations:
            assert finding.kind in ("exact", "shape", "wall")
            assert finding.paper_value
    # Host-time bounds are the microbenchmark's and the hot path's alone,
    # and are left out unless asked for: the report and the tier-1 gate
    # stay deterministic.
    walled = {n for n, e in experiments().items() for f in e.expectations if f.kind == "wall"}
    assert walled == {"microbench", "hotpath"}
    rows = [{"operators": 1, "operands": 5, "compile_ms": 1.0, "eval_us": 2.0}]
    assert verdicts_for("microbench", rows) == []
    assert len(verdicts_for("microbench", rows, wall=True)) == 3


def test_fig3_verdicts_pass_and_fail():
    good = {
        "latency_s": {1024: 0.0356, 65536: 0.037},
        "rtt_s": {"WI": 0.0356, "CLEM": 0.0509},
    }
    verdicts = verdicts_for("fig3", good)
    assert len(verdicts) == 2
    assert all(v.holds for v in verdicts)

    bad = {
        "latency_s": {1024: 0.09, 65536: 0.08},  # nowhere near WI RTT
        "rtt_s": {"WI": 0.0356, "CLEM": 0.0509},
    }
    verdicts = verdicts_for("fig3", bad)
    assert not verdicts[0].holds
    assert not verdicts[1].holds  # latency fell with size


def test_fig8_verdict_uses_windows():
    all_sites = Series()
    three = Series()
    changing = Series()
    for i in range(100):
        t = i * 0.2
        all_sites.record(t, 0.052)
        three.record(t, 0.049)
        changing.record(t, 0.052 if (t // 5) % 2 == 0 else 0.049)
    verdicts = verdicts_for(
        "fig8", {"all_sites": all_sites, "three_sites": three, "changing": changing}
    )
    assert all(v.holds for v in verdicts)


def test_broken_result_yields_failing_verdict_not_crash():
    empty = {"PhxPaxos": {}, "MajorityRegions": {}, "MajorityWNodes": {}}
    for broken in (
        {"sizes": [1000], "sync_time_s": {}},  # KeyError
        # An empty sweep (IndexError), a Series where a dict belongs
        # (TypeError): both used to escape and crash the report.
        {"sizes": [], "sync_time_s": empty, "improvement_vs_paxos": 0.2},
        {"sizes": [1000], "sync_time_s": Series(), "improvement_vs_paxos": 0.2},
    ):
        verdicts = verdicts_for("fig6", broken)
        assert verdicts
        assert not any(v.holds for v in verdicts)
        assert any("<error" in v.measured_value for v in verdicts)


def test_verdict_structure():
    v = Verdict("fig3", "m", "p", "x", "exact", True)
    assert v.experiment == "fig3" and v.holds
