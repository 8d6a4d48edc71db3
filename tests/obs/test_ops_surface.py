"""The live ops surface: OpenMetrics exposition, JSONL snapshots, the
burn-rate alerter, and the ``repro top`` renderer."""

import json

import pytest

from repro.obs.alerts import MIN_SAMPLES, SloAlerter, SloRule
from repro.obs.export import (
    SnapshotWriter,
    read_snapshots,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.scenario import run_obs_scenario
from repro.obs.top import render_top
from repro.obs.tracer import Tracer


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The demo run's snapshot stream, as `repro obs --snapshots-out`
    writes it: a record every 250 ms while three nodes each send every
    20 ms, and a last one after the drain.  Real ``obs_snapshot()``s, so
    a dashboard column over a key nothing emits reads wrong here."""
    path = tmp_path_factory.mktemp("obs") / "snaps.jsonl"
    run_obs_scenario(seed=0, snapshots_out=str(path))
    return list(read_snapshots(path))


# ---------------------------------------------------------- OpenMetrics
def test_openmetrics_roundtrip(records):
    text = render_openmetrics(records[-1]["nodes"])
    assert text.endswith("# EOF\n")
    samples = validate_openmetrics(text)
    gauge = samples["repro_frontier_lag_n1_received"]
    assert "# TYPE repro_frontier_lag_n1_received gauge" in text
    assert sorted(labels["node"] for labels, _v in gauge) == ["n0", "n1", "n2"]
    # A declared counter is typed, and its sample carries `_total`.
    assert "# TYPE repro_messages_sent counter" in text
    assert 'repro_messages_sent_total{node="n0"} 40' in text
    assert [v for _labels, v in samples["repro_messages_sent"]] == [40.0] * 3
    summary = samples["repro_stability_latency_all_remote"]
    counts = [v for labels, v in summary if "quantile" not in labels]
    assert 40.0 in counts  # the _count sample
    quantiles = {
        labels["quantile"]: v for labels, v in summary if "quantile" in labels
    }
    assert set(quantiles) == {"0.5", "0.9", "0.99"}


@pytest.mark.parametrize(
    "bad",
    [
        "repro_x 1\n# EOF\n",                       # sample without TYPE
        "# TYPE repro_x gauge\nrepro_x 1\n",        # missing EOF
        "# TYPE repro_x gauge\nrepro_x{node=n0} 1\n# EOF\n",  # bad labels
        "# TYPE repro_x gauge\n# TYPE repro_x gauge\n# EOF\n",  # dup TYPE
        "# TYPE repro_x gauge\nrepro_x one\n# EOF\n",  # non-numeric
    ],
)
def test_openmetrics_validator_rejects_malformed(bad):
    with pytest.raises(ValueError):
        validate_openmetrics(bad)


def test_openmetrics_name_sanitization():
    text = render_openmetrics(
        {"n0": {"metrics": {"a.b-c/d": 1.5}, "histograms": {}}}
    )
    assert "repro_a_b_c_d" in text
    validate_openmetrics(text)


# ------------------------------------------------------- JSONL snapshots
def test_snapshot_writer_roundtrip(tmp_path, records):
    snapshot = records[-1]["nodes"]["n0"]
    path = tmp_path / "snaps.jsonl"
    with SnapshotWriter(path) as writer:
        writer.append(1.0, {"n0": snapshot})
        writer.append(2.0, {"n0": snapshot}, cluster={"rebalance.completed": 1})
        assert writer.records == 2
    written = list(read_snapshots(path))
    assert [r["ts"] for r in written] == [1.0, 2.0]
    assert written[1]["cluster"]["rebalance.completed"] == 1
    assert written[0]["nodes"]["n0"]["metrics"]["messages_sent"] == 40


# ------------------------------------------------------------- alerting
def _alerter():
    t = [0.0]
    rule = SloRule(
        "slow", "stable.all", threshold=0.05, target=0.9,
        windows=((1.0, 5.0, 2.0),),
    )
    tracer = Tracer(clock=lambda: t[0], capacity=64, enabled=True)
    return t, SloAlerter(
        clock=lambda: t[0], rules=[rule], tracer=tracer, node="n0"
    ), tracer


def test_alert_fires_on_sustained_burn_and_resolves():
    t, alerter, tracer = _alerter()
    for _ in range(20):
        t[0] += 0.1
        alerter.observe("stable.all", 0.2)  # 100% violations
    assert alerter.fired == 1
    assert len(alerter.active()) == 1
    events = [e.etype for e in tracer.events()]
    assert "alert.fire" in events
    for _ in range(20):
        t[0] += 0.1
        alerter.observe("stable.all", 0.01)  # healthy again
    assert alerter.resolved == 1
    assert not alerter.active()
    assert "alert.resolve" in [e.etype for e in tracer.events()]
    assert alerter.stats()["alerts.fired"] == 1.0


def test_alert_needs_min_samples():
    t, alerter, _tracer = _alerter()
    for _ in range(MIN_SAMPLES - 1):
        t[0] += 0.01
        alerter.observe("stable.all", 0.2)
    assert alerter.fired == 0
    t[0] += 0.01
    alerter.observe("stable.all", 0.2)
    assert alerter.fired == 1


def test_alert_tolerates_within_budget_errors():
    # target 0.9 → 10% budget; 2x burn factor → alert needs >20% errors.
    # One violation per 10 sends (arriving after 9 healthy samples, so
    # the startup window never spikes past the factor) stays quiet.
    t, alerter, _tracer = _alerter()
    for i in range(100):
        t[0] += 0.01
        alerter.observe("stable.all", 0.2 if i % 10 == 9 else 0.01)
    assert alerter.fired == 0


def test_observing_unbound_series_is_a_noop():
    _t, alerter, _tracer = _alerter()
    alerter.observe("frontier_lag", 1e9)
    assert alerter.fired == 0


# ------------------------------------------------------------ dashboard
def _columns(frame, node):
    (line,) = [ln for ln in frame.splitlines() if ln.startswith(node + " ")]
    return line.split()


def test_render_top_rates_and_sections(records):
    # Two mid-run records half a second apart: each node sent 25 chunks
    # in between, one every 20 ms.
    early, late = records[0], records[2]
    assert (early["ts"], late["ts"]) == (0.25, 0.75)
    late = dict(
        late,
        cluster={
            "rebalance.shards_migrating": 2,
            "rebalance.completed": 3,
            "rebalance.handoff_bytes": 2048,
        },
        alerts=[{"rule": "slow", "window_s": [1, 5], "burn_short": 4.2}],
    )
    frame = render_top(late, prev=early)
    assert "t=0.750s" in frame
    for node in ("n0", "n1", "n2"):
        assert _columns(frame, node)[1] == "50.0"  # sent/s
    p99_ms = late["nodes"]["n0"]["histograms"]["stability_latency.all_remote"]["p99"]
    assert f"all_remote:{p99_ms * 1000:.1f}" in frame
    assert "migrating=2" in frame and "completed=3" in frame
    assert "ALERT slow" in frame
    # No prev record: rates render as zero, frame still complete.
    assert _columns(render_top(early), "n0")[1] == "0.0"


def test_render_top_reads_no_lag_on_a_drained_cluster(records):
    # Mid-run a receiver trails the data plane; after the drain every
    # cell this node grants has caught up, `persisted` never having been
    # one of them on this non-durable run.
    drained = render_top(records[-1])
    for node in ("n0", "n1", "n2"):
        assert _columns(drained, node)[2] == "0"  # lag


def test_render_top_handles_sharded_histogram_prefixes(records):
    snap = dict(records[-1]["nodes"]["n0"])
    snap["histograms"] = {
        "s0.stability_latency.all": {"p99": 0.010},
        "s1.stability_latency.all": {"p99": 0.050},
    }
    frame = render_top({"ts": 1.0, "nodes": {"n0": snap}})
    assert "all:50.0" in frame  # worst shard wins
