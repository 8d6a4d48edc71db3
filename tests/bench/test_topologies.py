"""Tests for the paper-topology presets."""

import pytest

from repro.bench.topologies import (
    CLOUDLAB_NODES,
    CLOUDLAB_SENDER,
    EC2_NODES,
    EC2_SENDER,
    HETERO_FACTORS,
    TABLE1_OBSERVED,
    TABLE2_OBSERVED,
    cloudlab_topology,
    ec2_topology,
)


def test_ec2_topology_has_eight_nodes_in_four_regions():
    topo = ec2_topology()
    assert len(topo.nodes) == 8
    groups = topo.groups()
    assert set(groups) == {
        "North California",
        "North Virginia",
        "Oregon",
        "Ohio",
    }
    # The DESIGN.md assignment derived from the Paxos discussion.
    assert len(groups["North California"]) == 2
    assert len(groups["North Virginia"]) == 4
    assert len(groups["Oregon"]) == 1
    assert len(groups["Ohio"]) == 1


def test_ec2_links_match_table1_without_heterogeneity():
    topo = ec2_topology(heterogeneity=False)
    for region, (rtt, _obs, half) in TABLE1_OBSERVED.items():
        if region == "North California":
            spec = topo.link_spec("NC-1", "NC-2")
        else:
            node = next(n for n, r in EC2_NODES.items() if r == region)
            spec = topo.link_spec(EC2_SENDER, node)
        assert spec.latency_ms == pytest.approx(rtt / 2)
        assert spec.rate_mbit == pytest.approx(half)


def test_ec2_heterogeneity_spreads_nv_bandwidth():
    topo = ec2_topology(heterogeneity=True)
    rates = {
        n: topo.link_spec(EC2_SENDER, n).rate_mbit
        for n in ("NV-1", "NV-2", "NV-3", "NV-4")
    }
    assert len(set(rates.values())) == 4  # all distinct
    base = TABLE1_OBSERVED["North Virginia"][2]
    for rate in rates.values():
        assert base * min(HETERO_FACTORS) <= rate <= base * max(HETERO_FACTORS)


def test_ec2_links_are_symmetric():
    topo = ec2_topology()
    for a in topo.node_names():
        for b in topo.node_names():
            if a != b:
                assert topo.link_spec(a, b) == topo.link_spec(b, a)


def test_cloudlab_topology_matches_table2():
    topo = cloudlab_topology()
    assert set(topo.node_names()) == set(CLOUDLAB_NODES)
    for site, (thp, rtt) in TABLE2_OBSERVED.items():
        spec = topo.link_spec(CLOUDLAB_SENDER, site)
        assert spec.latency_ms == pytest.approx(rtt / 2)
        assert spec.rate_mbit == pytest.approx(thp)


def test_cloudlab_remote_pairs_use_pessimistic_combination():
    topo = cloudlab_topology()
    spec = topo.link_spec("WI", "CLEM")
    assert spec.latency_ms == pytest.approx(50.918 / 2)
    assert spec.rate_mbit == pytest.approx(361.82)


def _same_network(ours, theirs):
    assert [(n.name, n.group) for n in ours.nodes] == [
        (n.name, n.group) for n in theirs.nodes
    ]
    names = ours.node_names()
    pairs = [(a, b) for a in names for b in names if a != b]
    assert pairs and all(
        ours.link_spec(a, b) == theirs.link_spec(a, b) for a, b in pairs
    )


def test_the_benchmarks_own_topologies_have_not_drifted():
    """``perf/topologies.py`` is the benchmark's deliberate own copy of
    the two environments (a refactor here must not move what ``perf/``
    measures, and a PR that claims a gain may not edit it).  Same nodes in
    the same order and groups, same spec on every directed link — or the
    two describe different networks under one name."""
    from perf import topologies as perf
    from repro.net.tc import NetemSpec
    from repro.net.topology import Topology

    _same_network(cloudlab_topology(), perf.cloudlab())
    _same_network(ec2_topology(), perf.ec2())
    _same_network(
        Topology.uniform(
            {f"n{az}{k}": f"az{az}" for az in range(3) for k in range(2)},
            NetemSpec(latency_ms=10.0, rate_mbit=100.0),
        ),
        perf.zones(3, 2),
    )
