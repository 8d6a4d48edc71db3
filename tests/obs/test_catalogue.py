"""The metric catalogue is the single source: what ``stats()`` emits is
what it declares, its merge rules are what a sharded node and the chaos
reports apply, its kinds are the OpenMetrics types, the dashboards
resolve their columns in it, and the docs table is rendered from it."""

import ast
import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runners.kit import build_cluster, build_network
from repro.core.admission import AdmissionController
from repro.core.rebalance import RebalanceCoordinator
from repro.core.sharding import build_sharded_cluster
from repro.core.slacontrol import SlaController
from repro.core.strategy import STRATEGY_NAMES
from repro.net import NetemSpec
from repro.net.topology import Topology
from repro.obs import catalogue
from repro.obs.catalogue import CATALOGUE, lookup, merge
from repro.obs.export import render_openmetrics, validate_openmetrics
from repro.obs.scenario import run_obs_scenario
from repro.testing import SyntheticPayload

ROOT = Path(__file__).resolve().parents[2]


def _topology():
    return Topology.uniform(
        {f"s{i}": f"r{i // 2}" for i in range(4)},
        NetemSpec(latency_ms=10, rate_mbit=100),
    )


def _shapes():
    """Every configuration that adds a name to what the system reports:
    ``{shape: [obs_snapshot(), ...]}``."""
    shapes = {}
    for tag, kwargs in (
        ("obs", {}),  # run_obs_scenario turns blame_in_stats on
        ("obs_durable", {"durability": True}),
        ("obs_slo", {"slo_threshold_s": 0.02}),
    ):
        result = run_obs_scenario(seed=0, **kwargs)
        shapes[tag] = list(result["snapshots"].values())
    for engine in STRATEGY_NAMES:
        sim, net = build_network(_topology())
        cluster = build_cluster(
            net,
            {"all": "MIN($ALLWNODES - $MYWNODE)"},
            stabilization_strategy=engine,
        )
        for i in range(50):
            sim.call_later(i * 0.002, cluster["s0"].send, SyntheticPayload(256))
        sim.run(until=2.0)
        shapes[f"plain_{engine}"] = [node.obs_snapshot() for node in cluster]
        cluster.close()
    # An unsharded node behind an admission gate small enough to shed,
    # with an SLA controller: a *consumer* that spells a gauge name wrong
    # registers it (registry.gauge is get-or-create), and it would show
    # up here.
    sim, net = build_network(_topology())
    cluster = build_cluster(net, {"all": "MIN($ALLWNODES)"})
    node = cluster["s0"]
    gate = node.set_admission(AdmissionController(node, rate_per_s=10.0))
    SlaController(node, "all", target_p99_s=0.001)
    for i in range(400):
        sim.call_later(i * 0.0005, gate.submit, SyntheticPayload(256))
    sim.run(until=3.0)
    shapes["admission"] = [n.obs_snapshot() for n in cluster]
    cluster.close()
    # A sharded node with an SLA controller per stack: its merged stats.
    sim, net = build_network(_topology())
    cluster = build_sharded_cluster(
        net, {"all": "MIN($SHARDWNODES)"}, shard_count=8, shard_replication=3
    )
    node = cluster["s0"]
    for inner in node.stacks().values():
        SlaController(inner, "all", target_p99_s=0.001)
    owned = node.owned_shards
    for i in range(400):
        sim.call_later(
            i * 0.0005,
            lambda i=i: node.send(SyntheticPayload(256), shard=owned[i % len(owned)]),
        )
    sim.run(until=3.0)
    shapes["sharded"] = [n.obs_snapshot() for n in cluster]
    coordinator = RebalanceCoordinator(cluster)
    shapes["cluster_block"] = [
        {
            "metrics": cluster.obs_snapshot()["cluster"],
            "histograms": coordinator.metrics.snapshot()["histograms"],
        }
    ]
    cluster.close()
    return shapes


@pytest.fixture(scope="module")
def emitted():
    """``[(shape, key, is_histogram)]`` over every shape."""
    return sorted(
        {
            (shape, key, histogram)
            for shape, snapshots in _shapes().items()
            for snapshot in snapshots
            for histogram, section in ((False, "metrics"), (True, "histograms"))
            for key in snapshot[section]
        }
    )


# ------------------------------------------------------ emitted == declared
def test_every_emitted_key_is_declared_exactly_once(emitted):
    for shape, key, histogram in emitted:
        rows = [
            m.name
            for m in CATALOGUE
            if (m.kind == "histogram") == histogram and m.pattern().fullmatch(key)
        ]
        assert len(rows) == 1, f"{shape}: {key!r} is declared by {rows}"
        assert lookup(key, histogram=histogram).name == rows[0]


def test_every_declared_metric_is_emitted(emitted):
    seen = {lookup(key, histogram=histogram) for _shape, key, histogram in emitted}
    assert [m.name for m in CATALOGUE if m not in seen] == []


def test_lag_gauges_exist_only_for_granted_types(emitted):
    """The family's placeholders would admit a consumer's misspelt type
    (``registry.gauge`` is get-or-create): no shape here calls
    ``report_stability``, so ``received`` is all a node grants, plus
    ``persisted`` where the WAL does."""
    lag = catalogue.resolve("frontier_lag.<origin>.<type>")
    granted = {
        (key.rpartition(".")[2], shape == "obs_durable")
        for shape, key, _histogram in emitted
        if lookup(key) is lag
    }
    assert granted == {("received", False), ("received", True), ("persisted", True)}


def test_rows_are_well_formed():
    from perf.layers import LAYERS  # read here, never imported by src/

    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
    for m in CATALOGUE:
        assert m.kind in ("counter", "gauge", "histogram"), m
        assert m.merge in ("sum", "max", "each"), m
        assert m.layer in LAYERS, m
        assert m.unit and m.help and "\n" not in m.help, m
        if m.kind == "counter":
            assert m.merge == "sum" or m.name == "trace_events", m
        if m.kind == "histogram":
            assert m.merge == "each", m  # summaries do not add


def test_the_counters_the_benchmark_totals_are_declared_additive():
    """``perf/trace.py`` adds these over the nodes of a cluster, sharded
    or not, and ``perf/`` is the benchmark's own copy: the guard on it."""
    tree = ast.parse((ROOT / "perf" / "trace.py").read_text())
    keys = [
        call.args[0].value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "total"
    ]
    assert len(keys) == 19
    for key in keys:
        assert lookup(key).merge == "sum", key


# -------------------------------------------------------------------- merge
_VALUES = st.integers(min_value=0, max_value=10**9)
_DECLARED = sorted(
    m.name for m in CATALOGUE if "<" not in m.name and m.kind != "histogram"
) + [
    "frontier_lag.n1.received",
    "critpath.all.share.network",
]
_SNAPSHOT = st.dictionaries(
    st.sampled_from(_DECLARED + ["app.requests", "undeclared"]), _VALUES
)


@settings(max_examples=50, deadline=None)
@given(_SNAPSHOT)
def test_one_snapshot_merges_to_itself(snapshot):
    assert merge([snapshot]) == snapshot


@settings(max_examples=50, deadline=None)
@given(st.lists(_SNAPSHOT, min_size=1, max_size=4))
def test_merge_applies_each_declared_rule(snapshots):
    labels = [f"s{i}" for i in range(len(snapshots))]
    merged = merge(snapshots, each_prefix=labels)
    expected = {}
    for label, snapshot in zip(labels, snapshots):
        for key, value in snapshot.items():
            row = lookup(key)
            rule = row.merge if row is not None else "sum"  # undeclared: as before
            if rule == "each":
                expected[catalogue.labelled(key, label)] = value
            else:
                expected.setdefault(key, []).append(value)
    for key, values in expected.items():
        if isinstance(values, list):
            row = lookup(key)
            values = max(values) if row and row.merge == "max" else sum(values)
        assert merged[key] == values, key
    assert set(merged) == set(expected)
    for key in merged:  # a labelled key still resolves to its row
        assert (lookup(key) is None) == (key in ("app.requests", "undeclared"))


def test_unlabelled_sources_may_not_share_a_per_source_value():
    lag = {"frontier_lag.n1.received": 3}
    with pytest.raises(ValueError, match="each_prefix"):
        merge([lag, lag])


# --------------------------------------------------------------- exposition
def test_openmetrics_types_each_family_by_its_declared_kind():
    sim, net = build_network(_topology())
    cluster = build_cluster(net, {"all": "MIN($ALLWNODES - $MYWNODE)"})
    node = cluster["s0"]
    node.registry.counter("app.requests").inc(3)  # a user's own metric
    for _ in range(5):
        node.send(SyntheticPayload(256))
    sim.run(until=1.0)
    text = render_openmetrics({n.name: n.obs_snapshot() for n in cluster})
    cluster.close()
    samples = validate_openmetrics(text)
    lines = text.splitlines()
    # One counter family: typed, `_total` sample, unit and help.
    at = lines.index("# TYPE repro_dataplane_frame_payload_bytes counter")
    assert lines[at + 1] == "# UNIT repro_dataplane_frame_payload_bytes bytes"
    assert lines[at + 2].startswith("# HELP repro_dataplane_frame_payload_bytes ")
    assert lines[at + 3] == (  # 5 x 256 B to each of three peers
        'repro_dataplane_frame_payload_bytes_total{node="s0"} 3840'
    )
    assert "# TYPE repro_pending_waiters gauge" in lines
    assert 'repro_pending_waiters{node="s0"} 0' in lines
    assert "# TYPE repro_stability_latency_all summary" in lines
    assert "# HELP repro_stability_latency_all send-to-stable delay" in text
    assert len(samples["repro_stability_latency_all"]) == 5  # s0: count, sum, 3 q
    # Undeclared: rendered as before, an untyped gauge with no metadata.
    at = lines.index("# TYPE repro_app_requests gauge")
    assert lines[at + 1] == 'repro_app_requests{node="s0"} 3'
    assert not any(ln.startswith("# HELP repro_app_requests") for ln in lines)


# --------------------------------------------------------------- dashboards
@pytest.mark.parametrize("module", ["repro.obs.top", "repro.cli"])
def test_a_dashboard_over_an_undeclared_name_fails_at_import(module, monkeypatch):
    dashboard = importlib.import_module(module)
    monkeypatch.delitem(catalogue._BY_NAME, "frontier_lag.<origin>.<type>")
    with pytest.raises(KeyError, match="frontier_lag"):
        importlib.reload(dashboard)
    monkeypatch.undo()
    importlib.reload(dashboard)


# --------------------------------------------------------------------- docs
def test_the_docs_table_is_the_catalogue():
    """``make metrics-doc`` rewrites the block; this fails when the
    checked-in one differs (the ``make api-check`` pattern)."""
    text = (ROOT / "docs" / "observability.md").read_text()
    assert catalogue.splice_block(text) == text, "run `make metrics-doc`"
    for other in ("overload.md", "sharding.md"):
        assert "observability.md#metrics" in (ROOT / "docs" / other).read_text()
